module landmarkdht/bench

go 1.23

require landmarkdht v0.0.0

replace landmarkdht => ../
