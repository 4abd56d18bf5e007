package bus

import "lotterybus/internal/core"

// SetFastCycleCheck installs fn to run on every cycle the fast path
// executes, after traffic arrival; nil removes it.
func SetFastCycleCheck(fn func(b *Bus)) { fastCycleCheck = fn }

// IncrementalRequestMap returns the fast path's request map at the
// current cycle, read from its incremental bitsets.
func (b *Bus) IncrementalRequestMap() core.Bitset { return b.fastMask() }

// ScannedRequestMap returns the request map as the naive loop builds it,
// by scanning masterPending over every master.
func (b *Bus) ScannedRequestMap() core.Bitset { return b.requestMask() }

// RetryBackoffPending reports whether some master is still held off the
// request lines by a retry backoff.
func (b *Bus) RetryBackoffPending() bool {
	for _, m := range b.masters {
		if m.backoffUntil > b.cycle {
			return true
		}
	}
	return false
}
