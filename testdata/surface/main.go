package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.NewBox(3).Get(), lib.Total([]lib.Shape{lib.NewSquare(2)}))
}
