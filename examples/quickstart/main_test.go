package main

// Example pins everything the quickstart prints: the compiled size, the
// WCET bound, the speculation plan and its checkpoints, and the protected
// run on the complex core.
func Example() {
	main()
	// Output:
	// compiled: 122 instructions, 3 sub-tasks
	// WCET on the VISA @1GHz: 6.5 us
	// plan: run at 700 MHz / 1.43 V, recover at 700 MHz (deadline 10.4 us)
	//   checkpoint 0 at 0.4 us
	//   checkpoint 1 at 5.4 us
	//   checkpoint 2 at 8.4 us
	// checkpoint missed at cycle 267: switched to simple mode at cycle 331
	// task finished in 6.7 us (deadline 10.4 us, slack 3.7 us), output [-74]
	// deadline met on an unanalyzable out-of-order core, at a fraction of the safe frequency.
}
