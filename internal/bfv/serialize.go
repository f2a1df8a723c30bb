package bfv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/poly"
)

// Binary serialization. Layout (all little-endian):
//
//	ciphertext: magic "BFVc" | u32 polyCount | u32 N | u32 W | limbs…
//	secret key: magic "BFVs" | u32 N | u32 W | limbs…
//
// Ciphertexts are what crosses the user↔server boundary in the paper's
// deployment model (§3: users encrypt, the PIM server computes).

var (
	magicCiphertext = [4]byte{'B', 'F', 'V', 'c'}
	magicSecretKey  = [4]byte{'B', 'F', 'V', 's'}
)

const maxSerializedPolys = 16 // sanity bound when decoding

// Polynomial limbs cross io.Writer/io.Reader boundaries through a fixed
// pooled chunk buffer instead of binary.Write/binary.Read, which would
// stage the whole limb vector in one transient allocation. A served
// front end streams multi-hundred-KiB ciphertexts per request, so the
// encode/decode working set must stay O(chunk), not O(blob). The wire
// layout is unchanged: the little-endian u32 limb sequence.

const polyChunkWords = 8 << 10 // 32 KiB chunks

var polyChunkPool = sync.Pool{New: func() any {
	b := make([]byte, polyChunkWords*4)
	return &b
}}

func writePoly(w io.Writer, p *poly.Poly) error {
	bp := polyChunkPool.Get().(*[]byte)
	defer polyChunkPool.Put(bp)
	buf := *bp
	c := p.C
	for len(c) > 0 {
		k := min(len(c), polyChunkWords)
		for i, v := range c[:k] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if _, err := w.Write(buf[:k*4]); err != nil {
			return err
		}
		c = c[k:]
	}
	return nil
}

// BackingAllocator supplies and reclaims []uint32 coefficient backings
// for the zero-copy decode path. Get returns a backing of exactly the
// requested word count with undefined contents (decoding overwrites
// every word); Put takes one back when a partially decoded ciphertext
// is abandoned mid-error. internal/polypool.Pool satisfies it.
type BackingAllocator interface {
	Get(words int) []uint32
	Put(b []uint32)
}

func readPoly(r io.Reader, n, width int, alloc BackingAllocator) (*poly.Poly, error) {
	var p *poly.Poly
	if alloc != nil {
		p = poly.NewPolyBacked(n, width, alloc.Get(n*width))
	} else {
		p = poly.NewPoly(n, width)
	}
	bp := polyChunkPool.Get().(*[]byte)
	defer polyChunkPool.Put(bp)
	buf := *bp
	c := p.C
	for len(c) > 0 {
		k := min(len(c), polyChunkWords)
		if _, err := io.ReadFull(r, buf[:k*4]); err != nil {
			if alloc != nil {
				alloc.Put(p.C)
			}
			return nil, err
		}
		for i := range c[:k] {
			c[i] = binary.LittleEndian.Uint32(buf[i*4:])
		}
		c = c[k:]
	}
	return p, nil
}

// readPolyCanonical reads one polynomial and rejects non-canonical
// coefficients (value ≥ q). Every decoder funnels through this check:
// downstream arithmetic assumes fully reduced residues, and a hostile
// blob must not smuggle unreduced ones past the boundary. On any error
// the backing (if pooled) has already been returned to alloc.
func readPolyCanonical(r io.Reader, n int, mod *poly.Modulus, alloc BackingAllocator) (*poly.Poly, error) {
	p, err := readPoly(r, n, mod.W, alloc)
	if err != nil {
		return nil, err
	}
	if c := poly.FirstUnreduced(p, mod); c >= 0 {
		if alloc != nil {
			alloc.Put(p.C)
		}
		return nil, fmt.Errorf("bfv: non-canonical coefficient %d (not reduced mod q)", c)
	}
	return p, nil
}

// Serialize writes the ciphertext in binary form.
func (ct *Ciphertext) Serialize(w io.Writer) error {
	if len(ct.Polys) == 0 {
		return errors.New("bfv: cannot serialize empty ciphertext")
	}
	if _, err := w.Write(magicCiphertext[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(len(ct.Polys)), uint32(ct.Polys[0].N), uint32(ct.Polys[0].W)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, p := range ct.Polys {
		if err := writePoly(w, p); err != nil {
			return err
		}
	}
	return nil
}

// ReadCiphertext deserializes a ciphertext and validates it against params.
func ReadCiphertext(r io.Reader, params *Parameters) (*Ciphertext, error) {
	return ReadCiphertextBacked(r, params, nil)
}

// ReadCiphertextBacked deserializes like ReadCiphertext but draws the
// coefficient backings from alloc (pass nil for ordinary allocation).
// On any decode error every backing already acquired is returned to
// alloc, so a rejected blob leaves the allocator balanced.
func ReadCiphertextBacked(r io.Reader, params *Parameters, alloc BackingAllocator) (*Ciphertext, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != magicCiphertext {
		return nil, errors.New("bfv: bad ciphertext magic")
	}
	hdr := make([]uint32, 3)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	count, n, w := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if count == 0 || count > maxSerializedPolys {
		return nil, fmt.Errorf("bfv: implausible polynomial count %d", count)
	}
	if n != params.N || w != params.Q.W {
		return nil, fmt.Errorf("bfv: ciphertext shape %d/%d does not match parameters %d/%d",
			n, w, params.N, params.Q.W)
	}
	ct := &Ciphertext{Polys: make([]*poly.Poly, count)}
	for i := range ct.Polys {
		p, err := readPolyCanonical(r, n, params.Q, alloc)
		if err != nil {
			if alloc != nil {
				for _, done := range ct.Polys[:i] {
					alloc.Put(done.C)
				}
			}
			return nil, err
		}
		ct.Polys[i] = p
	}
	return ct, nil
}

// Serialize writes the secret key in binary form.
func (sk *SecretKey) Serialize(w io.Writer) error {
	if _, err := w.Write(magicSecretKey[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(sk.S.N), uint32(sk.S.W)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	return writePoly(w, sk.S)
}

// ReadSecretKey deserializes a secret key.
func ReadSecretKey(r io.Reader, params *Parameters) (*SecretKey, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != magicSecretKey {
		return nil, errors.New("bfv: bad secret-key magic")
	}
	hdr := make([]uint32, 2)
	if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	if int(hdr[0]) != params.N || int(hdr[1]) != params.Q.W {
		return nil, errors.New("bfv: secret key shape mismatch")
	}
	return readPolyAsSecret(r, params)
}

func readPolyAsSecret(r io.Reader, params *Parameters) (*SecretKey, error) {
	p, err := readPolyCanonical(r, params.N, params.Q, nil)
	if err != nil {
		return nil, err
	}
	return &SecretKey{S: p}, nil
}
