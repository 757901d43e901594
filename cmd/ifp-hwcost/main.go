// Command ifp-hwcost prints the Figure-13 hardware area decomposition of
// the paper's prototype and the §5.3 ablation table from the calibrated
// LUT model. The ablation table covers the design points other than the
// prototype: no layout walker, no bounds registers, no MAC, and the
// scheme and temporal variants.
//
// Usage:
//
//	ifp-hwcost
package main

import (
	"flag"
	"fmt"

	"infat/internal/hwcost"
)

func main() {
	// There are no flags; parsing still answers -h and rejects an unknown
	// flag with exit 2 instead of printing the default tables.
	flag.Parse()
	fmt.Println(hwcost.Fig13(hwcost.Default))
	fmt.Println(hwcost.Ablations())
}
