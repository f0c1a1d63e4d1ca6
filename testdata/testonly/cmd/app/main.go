// Command app is the fixture's one non-test caller.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.Used()) }
