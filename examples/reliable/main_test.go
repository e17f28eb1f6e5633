package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// reliable 1 MiB transfers over STS-3c, go-back-N on the hosts
	//
	// cell loss       goodput     segments  retransmits   timeouts
	// 0e+00         133.31 Mb/s          128            0          0
	// 1e-04         105.23 Mb/s          128           24          3
	// 5e-04          77.53 Mb/s          128           64          8
	// 2e-03          27.03 Mb/s          128          329         45
	// 5e-03           8.80 Mb/s          128         1221        166
	//
	// delivery stays perfect; throughput does not — AAL5 turns one lost cell
	// into a lost 8 KiB segment, and go-back-N resends the whole window after it.
}
