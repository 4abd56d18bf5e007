package main

// pinnedDigests are the fingerprint digests of one pass at the default
// seed. A run at the default seed whose digest differs counts one failed
// unit: the simulator no longer reproduces the results it gave when the
// benchmark was defined.
var pinnedDigests = map[string]uint64{
	"sweep":  0x3330c6d351ec3917,
	"fabric": 0x174484209df7dee7,
	"serve":  0x35a30c4afb3bd792,
}
