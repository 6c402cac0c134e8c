// Package lib plants one exported name of each kind the surface check
// decides, passing or failing.
package lib

// Unreached is exported, but no other package uses it.
func Unreached() {}

// MissingTest cites a test no file declares. Test-only: TestNoSuchTest
// calls it.
func MissingTest() {}

// MissingItem cites a ROADMAP item the fixture does not list.
// Test-only: ROADMAP item 99 needs it.
func MissingItem() {}

// Stale is used by another package, yet says it is not. Test-only:
// TestCited calls it.
func Stale() {}

// Cited is used only by a test that exists. Test-only: TestCited calls
// it, and ROADMAP item 1 needs it.
func Cited() {}

// Shape is what the use package calls through.
type Shape interface{ Area() int }

type square struct{}

// Area is reached only through Shape.
func (square) Area() int { return 4 }

// String is reached only through fmt.Stringer.
func (square) String() string { return "square" }

// NewShape returns a square as a Shape.
func NewShape() Shape { return square{} }

// Stack is generic; the use package instantiates it.
type Stack[T any] struct{ items []T }

// Push is reached only through Stack[int].
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// Point appears only in Origin's signature.
type Point struct{ X, Y int }

// Origin returns the zero point.
func Origin() Point { return Point{} }
