package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// transferring 4194304 bytes over STS-3c, varying record size
	//
	// record   aal          goodput      ceiling  achieved
	// 512      AAL5        84.20 Mb/s    131.52 Mb/s     64.0%
	// 4096     AAL5       134.42 Mb/s    134.58 Mb/s     99.9%
	// 9180     AAL5       134.82 Mb/s    135.10 Mb/s     99.8%
	// 65535    AAL5       133.73 Mb/s    135.56 Mb/s     98.6%
	// 512      AAL3/4      84.19 Mb/s    120.56 Mb/s     69.8%
	// 4096     AAL3/4     123.00 Mb/s    123.13 Mb/s     99.9%
	// 9180     AAL3/4     123.88 Mb/s    124.11 Mb/s     99.8%
	// 65535    AAL3/4     122.74 Mb/s    124.28 Mb/s     98.8%
}
