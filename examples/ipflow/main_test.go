package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// bimodal IP mix at ~8 Mb/s offered; receive host also runs an application
	//
	// architecture              pkts rx  host util   interrupts  app work done
	// per-packet (paper)             16     100.0%           16           2407
	// hardwired                      16     100.0%           16           2407
	// per-cell baseline               4     100.0%          374           1983
	//
	// the per-cell adapter starves the application; the paper's interface does not.
}
