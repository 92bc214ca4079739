// Command caller uses the fixture from a second module, as perfbench
// uses this repository.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.CalledByCaller()) }
