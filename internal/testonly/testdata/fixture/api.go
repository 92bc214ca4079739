// Package fixture is the part of the fixture module that other modules
// may import.
package fixture

// API is not flagged: it is exported from a package outside internal/,
// so any module may call it.
func API() int { return 1 }
