package bits

// Dilated integer arithmetic. A "dilated" integer stores its bits in
// every other position of a word (even positions for one coordinate, odd
// for the other), which is exactly how the two coordinates of a
// Z-Morton (Lebesgue) index coexist inside one S value. Arithmetic on a
// coordinate can then be performed directly on the interleaved S value,
// without deinterleaving — the "fast algorithms, perhaps involving bit
// manipulation, for maintaining the dope vectors" the paper asks for in
// Section 1.
//
// The trick: to increment the even-position bits of s, set all the odd
// positions to 1 so that carries propagate across them, add 1, and mask
// the odd positions back out. General addition works the same way.

const (
	// MaskEven selects the even bit positions (coordinate j of a
	// Z-Morton key, per this package's Interleave convention).
	MaskEven uint64 = 0x5555555555555555
	// MaskOdd selects the odd bit positions (coordinate i).
	MaskOdd uint64 = 0xAAAAAAAAAAAAAAAA
)

// incEven increments the even-position (j) coordinate of a dilated key,
// discarding the odd positions.
func incEven(s uint64) uint64 {
	return ((s | MaskOdd) + 1) & MaskEven
}

func incOdd(s uint64) uint64 {
	return ((s | MaskEven) + 2) & MaskOdd
}

// ZNextJ advances a Z-Morton key to the cell one column to the right
// (j+1, same i): increment the even-dilated coordinate and splice the
// odd-dilated coordinate back in.
func ZNextJ(s uint64) uint64 {
	return incEven(s) | s&MaskOdd
}

// ZNextI advances a Z-Morton key to the cell one row down (i+1, same j).
func ZNextI(s uint64) uint64 {
	return incOdd(s) | s&MaskEven
}

// ZAddJ adds dj columns to a Z-Morton key. dj must be non-negative.
func ZAddJ(s uint64, dj uint32) uint64 {
	return ((s|MaskOdd)+Spread(dj))&MaskEven | s&MaskOdd
}

// ZAddI adds di rows to a Z-Morton key. di must be non-negative.
func ZAddI(s uint64, di uint32) uint64 {
	return ((s|MaskEven)+Spread(di)<<1)&MaskOdd | s&MaskEven
}
