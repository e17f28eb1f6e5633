package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// admitted  shaped vc 0/101  rt-vbr pcr=150000c/s scr=50000c/s mbs=32 cdvt=22.648us
	// admitted  raw    vc 0/102  rt-vbr pcr=150000c/s scr=50000c/s mbs=32 cdvt=22.648us
	// rejected  cbr pcr=300000c/s cdvt=0ns
	//           (core: vcc "trunk": source "a": tm: cac: bandwidth 100000 + 300000 exceeds link 353208 cells/s)
	// reserved  100000 of 353208 cells/s, 64 of 64 buffer cells
	//
	// vcc               cells  conform   tagged  discarded  frames-ok goodput-Mb/s
	// 0/101 shaped       2016     2016        0          0         24         19.2
	// 0/102 raw          2016      888      288        840          0          0.0
	//
	// same mean rate, opposite fates: shaping to the contract is what
	// makes the network's usage parameter control let the traffic live.
}
