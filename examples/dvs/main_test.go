package main

// Example pins everything the DVS demo prints: the savings, solved
// frequencies and checkpoint misses of each PET policy on lms, and the
// complex core's energy breakdown.
func Example() {
	main()
	// Output:
	// VISA + DVS on lms, 200 task instances, tight deadline
	//
	// PET policy                    savings  complex MHz   simple MHz   misses
	// last-N (paper default)          49.2%          225          600        0
	// histogram, 0% target            48.5%          225          600        0
	// histogram, 10% target           49.3%          225          600        0
	// histogram, 25% target           49.3%          225          600        0
	//
	// Energy breakdown of the complex core (last-N, tight):
	//   bpred        0.4%
	//   bypass       3.8%
	//   clock       21.9%
	//   dcache      14.0%
	//   fetch        3.8%
	//   fu           8.4%
	//   icache       4.6%
	//   idle         1.5%
	//   iq-issue     9.5%
	//   iq-write     4.6%
	//   lsq          4.2%
	//   regread      4.6%
	//   regwrite     3.9%
	//   rename       5.7%
	//   rob          9.1%
	//
	// All deadlines met in every configuration.
}
