package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// CBR stream: 60 frames of 32768 bytes every 33.333ms (≈7.9 Mb/s)
	//
	// idle network            frames 60   delay min 3.716ms  mean 3.716ms  max 3.716ms   jitter(std) 0ns
	// with bulk vc            frames 60   delay min 3.716ms  mean 5.667ms  max 7.620ms   jitter(std) 1.140ms
	// bulk + interleave/pace  frames 60   delay min 3.971ms  mean 4.867ms  max 6.316ms   jitter(std) 420.140us
	//
	// interleaved segmentation plus pacing the bulk flow restores the CBR
	// stream's delay behaviour — the QoS case for per-VC scheduling on the adapter.
}
