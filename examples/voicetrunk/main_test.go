package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// 64 kb/s voice over AAL1: one 47-byte cell every 5.875ms
	//
	// cell loss         cells       lost  concealed-B   clock-slip-B
	// 0e+00              1703          0            0              0
	// 1e-04              1703          0            0              0
	// 1e-03              1703          4          188              0
	// 1e-02              1703         17          799              0
	//
	// the reproduced stream length never drifts: losses become silence,
	// not time — the property circuit emulation exists to provide.
}
