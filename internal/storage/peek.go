package storage

// PeekClock reads the logical clock out of an encoded tile without
// decoding the elements — the binary header is magic, version, name,
// clock, so the read touches a handful of bytes and allocates nothing.
// The cluster router compares replica freshness on every quorum read,
// where a full DecodeBinary per replica would dominate the read path.
func PeekClock(data []byte) (uint64, error) {
	r := reader{buf: data}
	_, clock, err := r.header()
	return clock, err
}
