// Package core implements the record store (§3, §4): the paper's primary
// contribution. A record store encapsulates an entire logical database —
// serialized records, secondary indexes, and operational state such as the
// store header and index build progress — within one contiguous subspace of
// the key space, providing logical isolation between tenants. Moving a
// tenant is as simple as copying the subspace's key range.
package core

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
)

// Serializer transforms a serialized record before storage and back after
// retrieval. Serializers are pluggable and composable, supporting optional
// compression and encryption of stored records (§4).
type Serializer interface {
	// Encode transforms plaintext record bytes for storage.
	Encode(data []byte) ([]byte, error)
	// Decode reverses Encode. It returns bytes the caller may keep and that the
	// decoder never reuses or writes again: fresh output, or a subslice of
	// blob. A decoded record's string fields view them (message.Unmarshal).
	Decode(blob []byte) ([]byte, error)
}

// IdentitySerializer stores record bytes unchanged.
type IdentitySerializer struct{}

// Encode implements Serializer.
func (IdentitySerializer) Encode(data []byte) ([]byte, error) { return data, nil }

// Decode implements Serializer.
func (IdentitySerializer) Decode(blob []byte) ([]byte, error) { return blob, nil }

// CompressingSerializer applies DEFLATE compression when it helps. The first
// output byte tags whether the remainder is compressed, so incompressible
// records round-trip without bloat.
type CompressingSerializer struct{}

// Encode implements Serializer.
func (CompressingSerializer) Encode(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(1)
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if buf.Len() >= len(data)+1 {
		out := make([]byte, 0, len(data)+1)
		out = append(out, 0)
		return append(out, data...), nil
	}
	return buf.Bytes(), nil
}

// Decode implements Serializer.
func (CompressingSerializer) Decode(blob []byte) ([]byte, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("core: empty compressed record")
	}
	if blob[0] == 0 {
		return blob[1:], nil
	}
	r := flate.NewReader(bytes.NewReader(blob[1:]))
	defer r.Close()
	return io.ReadAll(r)
}

// EncryptingSerializer applies AES-CTR with a per-record random nonce,
// standing in for the client-defined encryption the paper mentions (§4).
type EncryptingSerializer struct {
	block cipher.Block
}

// NewEncryptingSerializer creates an AES serializer; the key must be 16, 24
// or 32 bytes.
func NewEncryptingSerializer(key []byte) (*EncryptingSerializer, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("core: %v", err)
	}
	return &EncryptingSerializer{block: block}, nil
}

// Encode implements Serializer.
func (s *EncryptingSerializer) Encode(data []byte) ([]byte, error) {
	iv := make([]byte, aes.BlockSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	out := make([]byte, aes.BlockSize+len(data))
	copy(out, iv)
	cipher.NewCTR(s.block, iv).XORKeyStream(out[aes.BlockSize:], data)
	return out, nil
}

// Decode implements Serializer.
func (s *EncryptingSerializer) Decode(blob []byte) ([]byte, error) {
	if len(blob) < aes.BlockSize {
		return nil, fmt.Errorf("core: encrypted record too short")
	}
	out := make([]byte, len(blob)-aes.BlockSize)
	cipher.NewCTR(s.block, blob[:aes.BlockSize]).XORKeyStream(out, blob[aes.BlockSize:])
	return out, nil
}

// ChainSerializer composes serializers: Encode applies them in order, Decode
// in reverse (e.g. compress then encrypt).
type ChainSerializer struct {
	chain []Serializer
}

// NewChainSerializer builds a composition.
func NewChainSerializer(chain ...Serializer) *ChainSerializer {
	return &ChainSerializer{chain: chain}
}

// Encode implements Serializer.
func (c *ChainSerializer) Encode(data []byte) ([]byte, error) {
	var err error
	for _, s := range c.chain {
		data, err = s.Encode(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Decode implements Serializer.
func (c *ChainSerializer) Decode(blob []byte) ([]byte, error) {
	var err error
	for i := len(c.chain) - 1; i >= 0; i-- {
		blob, err = c.chain[i].Decode(blob)
		if err != nil {
			return nil, err
		}
	}
	return blob, nil
}
