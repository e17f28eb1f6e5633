package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// first cells on the server's access line (note the interleaved MIDs):
	//   cell  0 at     58.814us  vc=0/200  mid=101
	//   cell  1 at     61.645us  vc=0/200  mid=202
	//   cell  2 at     64.476us  vc=0/200  mid=303
	//   cell  3 at     67.307us  vc=0/200  mid=101
	//   cell  4 at     70.138us  vc=0/200  mid=202
	//   cell  5 at     72.969us  vc=0/200  mid=303
	//   cell  6 at     75.800us  vc=0/200  mid=101
	//   cell  7 at     78.631us  vc=0/200  mid=202
	//   cell  8 at     81.462us  vc=0/200  mid=303
	//   cell  9 at     84.293us  vc=0/200  mid=101
	//   cell 10 at     87.124us  vc=0/200  mid=202
	//   cell 11 at     89.955us  vc=0/200  mid=303
	//
	// MID 101 -> "message from access station 0 over the share"...
	// MID 202 -> "message from access station 1 over the share"...
	// MID 303 -> "message from access station 2 over the share"...
	//
	// 3 frames demultiplexed from one VC; AAL5 could not have done this.
}
