package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// fingerprintMantissaMask drops the low 12 bits of the IEEE-754 mantissa
// before hashing, quantizing values to ~5e-13 relative resolution. Matrices
// that differ only by sub-quantum floating-point noise (e.g. the same
// operator assembled with a different summation order) map to the same
// fingerprint, so a serving cache keyed on it reuses one preconditioner for
// all of them.
const fingerprintMantissaMask = ^uint64(0xFFF)

// Fingerprint returns a stable content hash of the matrix: SHA-256 over the
// shape, the CSR structure (RowPtr, ColIdx) and the quantized values,
// rendered as a 32-character hex string. Two matrices share a fingerprint
// iff they have identical shape and sparsity structure and entrywise values
// equal after mantissa quantization. The hash is independent of slice
// capacities and stable across processes and platforms (little-endian
// serialization is forced).
func (m *CSR) Fingerprint() string {
	fp, _ := m.FingerprintWithPattern()
	return fp
}

// FingerprintWithPattern returns the Fingerprint together with the pattern
// digest: the same hash read off after the shape and the structure, before
// any value has entered it, so two matrices share it iff they have identical
// shape, RowPtr and ColIdx. One pass feeds both.
func (m *CSR) FingerprintWithPattern() (content, pattern string) {
	w := blockHasher{h: sha256.New()}
	w.h.Write([]byte("csr/v1\n"))
	w.word(uint64(int64(m.Rows)))
	w.word(uint64(int64(m.Cols)))
	w.word(uint64(int64(m.NNZ())))
	for _, p := range m.RowPtr {
		w.word(uint64(int64(p)))
	}
	for _, c := range m.ColIdx {
		w.word(uint64(int64(c)))
	}
	pattern = w.digest() // Sum leaves the hash state as it is
	for _, v := range m.Val {
		w.word(math.Float64bits(v) & fingerprintMantissaMask)
	}
	return w.digest(), pattern
}

// blockHasher feeds a hash 8-byte little-endian words through a 4 KiB
// buffer: the hash sees the same byte stream as one Write per word, in a
// five-hundredth of the calls.
type blockHasher struct {
	h   hash.Hash
	buf [4096]byte
	n   int
}

func (w *blockHasher) word(v uint64) {
	if w.n == len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *blockHasher) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

// digest returns the first 16 bytes of the hash of everything written so
// far, in hex.
func (w *blockHasher) digest() string {
	w.flush()
	sum := w.h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
