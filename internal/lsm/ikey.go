package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// keyKind distinguishes live values from tombstones in internal keys.
type keyKind uint8

const (
	kindDelete keyKind = 0
	kindValue  keyKind = 1
)

// seqNum is a global, monotonically increasing write sequence number. It
// orders overlapping entries: a higher sequence number shadows a lower one
// for the same user key.
type seqNum uint64

const maxSeq = seqNum(1)<<56 - 1

// internalKey is userKey + an 8-byte trailer: (seq << 8) | kind.
// Internal keys sort by user key ascending, then by sequence number
// descending (newest first), then by kind descending — the LevelDB order.
type internalKey []byte

// makeIKey builds an internal key from its parts.
func makeIKey(userKey []byte, seq seqNum, kind keyKind) internalKey {
	ik := make(internalKey, len(userKey)+8)
	ik.set(userKey, seq, kind)
	return ik
}

// set fills ik, which must be len(userKey)+8 long, from its parts.
func (ik internalKey) set(userKey []byte, seq seqNum, kind keyKind) {
	copy(ik, userKey)
	binary.LittleEndian.PutUint64(ik[len(userKey):], uint64(seq)<<8|uint64(kind))
}

// userKey returns the user portion of an internal key.
func (ik internalKey) userKey() []byte { return ik[:len(ik)-8] }

// seq returns the sequence number.
func (ik internalKey) seq() seqNum {
	return seqNum(binary.LittleEndian.Uint64(ik[len(ik)-8:]) >> 8)
}

// kind returns the entry kind.
func (ik internalKey) kind() keyKind {
	return keyKind(ik[len(ik)-8] & 0xff)
}

// valid reports whether ik is long enough to carry a trailer.
func (ik internalKey) valid() bool { return len(ik) >= 8 }

func (ik internalKey) String() string {
	if !ik.valid() {
		return fmt.Sprintf("invalid:%x", []byte(ik))
	}
	return fmt.Sprintf("%q#%d,%d", ik.userKey(), ik.seq(), ik.kind())
}

// compareIKeys orders internal keys: user key ascending, then sequence
// descending, then kind descending.
func compareIKeys(a, b internalKey) int {
	if c := bytes.Compare(a.userKey(), b.userKey()); c != 0 {
		return c
	}
	ta := binary.LittleEndian.Uint64(a[len(a)-8:])
	tb := binary.LittleEndian.Uint64(b[len(b)-8:])
	switch {
	case ta > tb:
		return -1
	case ta < tb:
		return 1
	default:
		return 0
	}
}

// lookupKey returns the internal key that starts a search for userKey at
// snapshot seq: the largest internal key <= any entry for userKey with
// sequence <= seq.
func lookupKey(userKey []byte, seq seqNum) internalKey {
	return makeIKey(userKey, seq, kindValue)
}
