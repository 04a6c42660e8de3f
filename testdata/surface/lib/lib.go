// Package lib is TestSurfaceFixture's library: one exported name of
// each kind the gate must judge.
package lib

// Dead has no caller: the gate must report it.
func Dead() int { return 1 }

// Shape is used by main only as an interface.
type Shape interface{ Area() float64 }

// Square's Area is reached only through Shape.
type Square struct{ side float64 }

// NewSquare returns a square of the given side.
func NewSquare(side float64) Square { return Square{side} }

// Area is the square's area.
func (s Square) Area() float64 { return s.side * s.side }

// Total sums the areas of shapes.
func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Box is generic; main calls Get only on an instantiation.
type Box[T any] struct{ v T }

// NewBox boxes v.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v} }

// Get unboxes.
func (b *Box[T]) Get() T { return b.v }
