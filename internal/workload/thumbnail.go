package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"github.com/horse-faas/horse/internal/simtime"
)

// ThumbnailRequest names a source image and the target edge length. The
// paper's §5.4 experiment runs the SEBS thumbnail generator over images in
// an S3 bucket; here the "bucket" is a deterministic synthetic image
// generator keyed by the object name, which preserves the function's
// compute profile without the proprietary storage.
type ThumbnailRequest struct {
	Object string `json:"object"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Edge   int    `json:"edge"`
}

// ThumbnailResult describes the generated thumbnail.
type ThumbnailResult struct {
	Object   string `json:"object"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Checksum uint64 `json:"checksum"`
}

// Thumbnail is the long-running workload of §5.4: it synthesizes the
// source image deterministically, box-downscales it to the requested edge
// length, and returns a checksum of the result.
type Thumbnail struct{}

var _ Function = (*Thumbnail)(nil)

// NewThumbnail returns the thumbnail generator.
func NewThumbnail() *Thumbnail { return &Thumbnail{} }

// Name implements Function.
func (t *Thumbnail) Name() string { return "thumbnail" }

// Category implements Function.
func (t *Thumbnail) Category() Category { return CategoryLong }

// VirtualDuration implements Function.
func (t *Thumbnail) VirtualDuration() simtime.Duration { return ThumbnailDuration }

// maxPixels bounds the synthetic source so a hostile payload cannot make
// the function allocate unbounded memory.
const maxPixels = 64 << 20

// Generate renders the thumbnail for a parsed request.
func (t *Thumbnail) Generate(req ThumbnailRequest) (ThumbnailResult, error) {
	if req.Width <= 0 || req.Height <= 0 || req.Edge <= 0 {
		return ThumbnailResult{}, fmt.Errorf("%w: dims %dx%d edge %d", ErrBadPayload, req.Width, req.Height, req.Edge)
	}
	if req.Width*req.Height > maxPixels {
		return ThumbnailResult{}, fmt.Errorf("%w: image too large", ErrBadPayload)
	}
	if req.Edge > req.Width || req.Edge > req.Height {
		return ThumbnailResult{}, fmt.Errorf("%w: edge exceeds source", ErrBadPayload)
	}

	// Deterministic synthetic source: pixel = f(object, x, y).
	h := fnv.New64a()
	_, _ = h.Write([]byte(req.Object))
	seed := h.Sum64()
	src := func(x, y int) uint8 {
		v := seed ^ uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F
		v ^= v >> 29
		v *= 0xBF58476D1CE4E5B9
		return uint8(v >> 56)
	}

	// Box-filter downscale to edge×edge.
	outW, outH := req.Edge, req.Edge
	bx := req.Width / outW
	by := req.Height / outH
	sum := fnv.New64a()
	var buf [1]byte
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			var acc, n uint64
			for y := oy * by; y < (oy+1)*by; y++ {
				for x := ox * bx; x < (ox+1)*bx; x++ {
					acc += uint64(src(x, y))
					n++
				}
			}
			buf[0] = uint8(acc / n)
			_, _ = sum.Write(buf[:])
		}
	}
	return ThumbnailResult{
		Object:   req.Object,
		Width:    outW,
		Height:   outH,
		Checksum: sum.Sum64(),
	}, nil
}

// Invoke implements Function: JSON ThumbnailRequest in, ThumbnailResult
// out.
func (t *Thumbnail) Invoke(payload []byte) ([]byte, error) {
	var req ThumbnailRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	res, err := t.Generate(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// Spin is a sysbench-style CPU hog used as background load in the §5.2
// overhead experiment.
type Spin struct {
	// Demand is the virtual CPU time the task consumes per scheduling
	// round.
	Demand simtime.Duration
}

var _ Function = (*Spin)(nil)

// Name implements Function.
func (s *Spin) Name() string { return "spin" }

// Category implements Function.
func (s *Spin) Category() Category { return CategoryLong }

// VirtualDuration implements Function.
func (s *Spin) VirtualDuration() simtime.Duration { return s.Demand }

// Invoke implements Function: it burns a small, bounded amount of real
// CPU (a primality count, the sysbench kernel) and reports the count.
func (s *Spin) Invoke(payload []byte) ([]byte, error) {
	const limit = 2000
	count := 0
	for n := 2; n < limit; n++ {
		prime := true
		for d := 2; d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			count++
		}
	}
	return json.Marshal(map[string]int{"primes": count})
}
