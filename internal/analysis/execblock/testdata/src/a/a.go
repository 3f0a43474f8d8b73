// Fixture for the execblock analyzer: blocking operations in code
// reachable from //lint:context executor roots are diagnostics; code
// severed onto fresh goroutines or unreachable from a root is not.
package a

import (
	"net"
	"sync"
	"time"
)

var (
	mu sync.Mutex
	ch = make(chan int)
)

// Runtime mimics the live runtime's blocking bridge: Do waits on the
// executor, so calling it FROM the executor self-deadlocks.
type Runtime struct{}

func (r *Runtime) Do(f func()) {}

//lint:context executor
func Step(conn net.Conn, buf []byte) {
	ch <- 1                                    // want "channel send on the protocol executor"
	<-ch                                       // want "channel receive on the protocol executor"
	mu.Lock()                                  // want "sync.Mutex.Lock on the protocol executor"
	mu.Unlock()                                // Unlock never blocks
	time.Sleep(time.Millisecond)               // want "time.Sleep on the protocol executor"
	if _, err := conn.Write(buf); err != nil { // want "net.Conn.Write on the protocol executor"
		return
	}
	helper()
	go spawned()
	go func() {
		time.Sleep(time.Second) // severed: runs on a fresh goroutine
	}()
	select { // a select with default polls; its comm ops never block
	case v := <-ch:
		_ = v
	default:
	}
	select { // want "blocking select on the protocol executor"
	case v := <-ch:
		_ = v
	}
	mu.Lock() //lint:allow execblock bounded critical section; holders never block
	mu.Unlock()
}

// Driver mimics runtime.Driver: the interface a Platform or a node holds
// its runtime through. The bridges block whatever implements them.
type Driver interface {
	Do(f func())
	Await(op func(finish func()))
}

//lint:context executor
func StepDo(rt *Runtime, d Driver) {
	rt.Do(func() {})         // want "Runtime.Do"
	d.Do(func() {})          // want "Driver.Do"
	d.Await(func(func()) {}) // want "Driver.Await"
}

func helper() {
	ch <- 2 // want "reachable via Step → helper"
}

func spawned() {
	time.Sleep(time.Second) // own goroutine: not executor context
}

func unreached() {
	ch <- 3 // no executor root reaches this
}
