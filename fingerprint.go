package hybridpart

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// SourceHash returns the canonical content hash of a mini-C source text:
// the hex-encoded SHA-256 of its bytes. It is the source component of the
// cache keys used by the partitioning service — Compile records it on the
// App so a Workload can be content-addressed without re-reading the source.
func SourceHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// Fingerprint returns a canonical content hash of the full knob set: the
// hex-encoded SHA-256 of one "Name=value\n" line per exported field, nested
// Costs fields as "Costs.LatMul", in sorted name order. Ints and bools are
// written in decimal and as true/false, Order and Objective by their String
// spelling. Two Options values compare equal if and only if their
// fingerprints are equal, and the hash depends on field names, never on
// declaration order, so reordering fields leaves every fingerprint in place.
// The lines are appended in a fixed order into one stack buffer and hashed
// once, without reflection; they are byte for byte the lines a reflective
// walk would print and sort. Combined with a workload's SourceHash this keys
// the content-addressed result cache of the partitioning service.
func (o Options) Fingerprint() string {
	var buf [2 * sha256.Size]byte
	return string(o.AppendFingerprint(buf[:0]))
}

// AppendFingerprint appends the hex Fingerprint of o to dst and returns the
// extended slice, so a caller building a longer key needs no string for it.
func (o Options) AppendFingerprint(dst []byte) []byte {
	var buf [fingerprintBufLen]byte
	sum := sha256.Sum256(o.appendFingerprintLines(buf[:0]))
	return hex.AppendEncode(dst, sum[:])
}

// fingerprintBufLen holds the lines of any Options value: the 32 names with
// their '=' and newline take 391 bytes and the values at most 613 (28 ints of
// up to 20 bytes, two bools, "total-weight" and
// "Objective(-9223372036854775808)").
const fingerprintBufLen = 1024

// appendFingerprintLines appends the hashed lines of o to b. The lines sort
// by name because no field name is a prefix of another, so the order below
// is the byte order of the names: keep it so when adding a field.
func (o Options) appendFingerprintLines(b []byte) []byte {
	c := o.Costs
	b = appendIntLine(b, "AFPGA=", int64(o.AFPGA))
	b = appendIntLine(b, "CGCCols=", int64(o.CGCCols))
	b = appendIntLine(b, "CGCRows=", int64(o.CGCRows))
	b = appendIntLine(b, "ClockRatio=", int64(o.ClockRatio))
	b = appendIntLine(b, "CommCyclesPerWord=", int64(o.CommCyclesPerWord))
	b = appendIntLine(b, "CommSyncCycles=", int64(o.CommSyncCycles))
	b = appendIntLine(b, "Constraint=", o.Constraint)
	b = appendIntLine(b, "Costs.AreaALU=", int64(c.AreaALU))
	b = appendIntLine(b, "Costs.AreaDiv=", int64(c.AreaDiv))
	b = appendIntLine(b, "Costs.AreaMem=", int64(c.AreaMem))
	b = appendIntLine(b, "Costs.AreaMul=", int64(c.AreaMul))
	b = appendIntLine(b, "Costs.LatALU=", int64(c.LatALU))
	b = appendIntLine(b, "Costs.LatDiv=", int64(c.LatDiv))
	b = appendIntLine(b, "Costs.LatMem=", int64(c.LatMem))
	b = appendIntLine(b, "Costs.LatMul=", int64(c.LatMul))
	b = appendIntLine(b, "MaxMoves=", int64(o.MaxMoves))
	b = appendIntLine(b, "MemPorts=", int64(o.MemPorts))
	b = appendIntLine(b, "NumCGCs=", int64(o.NumCGCs))
	b = appendLine(b, "Objective=", o.Objective.String())
	b = appendLine(b, "Order=", o.Order.String())
	b = appendIntLine(b, "ReconfigCycles=", int64(o.ReconfigCycles))
	b = appendIntLine(b, "RegBankWords=", int64(o.RegBankWords))
	b = appendIntLine(b, "Regions=", int64(o.Regions))
	b = appendIntLine(b, "RerankK=", int64(o.RerankK))
	b = appendIntLine(b, "SimFrames=", int64(o.SimFrames))
	b = appendIntLine(b, "SimPorts=", int64(o.SimPorts))
	b = appendBoolLine(b, "SimPrefetch=", o.SimPrefetch)
	b = appendBoolLine(b, "SkipNonImproving=", o.SkipNonImproving)
	b = appendIntLine(b, "WeightALU=", o.WeightALU)
	b = appendIntLine(b, "WeightDiv=", o.WeightDiv)
	b = appendIntLine(b, "WeightMem=", o.WeightMem)
	b = appendIntLine(b, "WeightMul=", o.WeightMul)
	return b
}

func appendIntLine(b []byte, name string, v int64) []byte {
	return append(strconv.AppendInt(append(b, name...), v, 10), '\n')
}

func appendBoolLine(b []byte, name string, v bool) []byte {
	return append(strconv.AppendBool(append(b, name...), v), '\n')
}

func appendLine(b []byte, name, v string) []byte {
	return append(append(append(b, name...), v...), '\n')
}
