// Command use reaches the fixture's exported names the ways the surface
// check must recognise.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Stack[int]
	s.Push(1)
	shape := lib.NewShape()
	lib.Stale()
	fmt.Println(shape, shape.Area(), lib.Origin().X)
}
