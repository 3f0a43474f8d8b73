// Fixture for allowaudit on deadexport allows: the package type-checks
// as "internal", so deadexport audits it.
package internal

var _ = Used()

// Used has a caller, so its allow suppresses nothing.
func Used() int { return 1 } //lint:allow deadexport a test uses it as a fixture
// want-1 "stale //lint:allow deadexport"

func Fixture() {} //lint:allow deadexport a test uses it as a fixture
