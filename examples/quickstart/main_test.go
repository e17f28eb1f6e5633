package main

// Example pins the program's whole stdout.
func Example() {
	main()
	// Output:
	// B got "ping across the testbed" on 0/42 after 85.743us (1 cells)
	// A got "pong from 1991" back at 170.926us
	// simulation finished at 170.926us
	// B's interface saw 1 cells, delivered 1 packets, 0 errors
}
