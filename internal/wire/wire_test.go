package wire

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// randParams builds a deterministic parameter set with a mix of magnitudes,
// signs, zeros, and subnormals — the bit patterns a delta codec must carry.
func randParams(rng *rand.Rand, shapes [][2]int) []*tensor.Matrix {
	var params []*tensor.Matrix
	for _, sh := range shapes {
		m := tensor.New(sh[0], sh[1])
		for i := range m.Data {
			switch rng.Intn(8) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = math.Copysign(0, -1)
			case 2:
				m.Data[i] = rng.NormFloat64() * 1e-310 // subnormal range
			default:
				m.Data[i] = rng.NormFloat64()
			}
		}
		params = append(params, m)
	}
	return params
}

// perturb nudges a fraction of elements the way SGD steps do, leaving the
// rest untouched (the zero-delta runs the codec exploits).
func perturb(rng *rand.Rand, params []*tensor.Matrix, frac float64) {
	for _, p := range params {
		for i := range p.Data {
			if rng.Float64() < frac {
				p.Data[i] += rng.NormFloat64() * 1e-3
			}
		}
	}
}

func cloneSet(params []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

func likeSet(params []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = tensor.New(p.Rows, p.Cols)
	}
	return out
}

func bitsEqual(t *testing.T, got, want []*tensor.Matrix, label string) {
	t.Helper()
	for i := range want {
		for j := range want[i].Data {
			gb, wb := math.Float64bits(got[i].Data[j]), math.Float64bits(want[i].Data[j])
			if gb != wb {
				t.Fatalf("%s: tensor %d elem %d bits %016x, want %016x", label, i, j, gb, wb)
			}
		}
	}
}

var testShapes = [][2]int{{6, 130}, {1, 130}, {130, 4}, {1, 4}, {0, 7}, {3, 0}}

// TestDeltaRoundTripBitExact drives a multi-epoch Delta stream, including a
// NaN/Inf epoch, and checks DecodeInto reproduces every bit.
func TestDeltaRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, testShapes)
	var payload []byte
	for epoch := 0; epoch < 6; epoch++ {
		if epoch == 3 {
			// Diverged epoch: delta must carry NaN and ±Inf bits too.
			params[0].Data[5] = math.NaN()
			params[0].Data[6] = math.Inf(1)
			params[0].Data[7] = math.Inf(-1)
		}
		var err error
		payload, err = x.EncodeInto(payload[:0], 1, "fc", params)
		if err != nil {
			t.Fatalf("encode epoch %d: %v", epoch, err)
		}
		dst := likeSet(params)
		if err := x.DecodeInto(dst, 1, "fc", payload); err != nil {
			t.Fatalf("decode epoch %d: %v", epoch, err)
		}
		bitsEqual(t, dst, params, "epoch")
		err = x.Validate(1, "fc", dst, payload)
		if epoch == 3 {
			if !errors.Is(err, ErrDiverged) {
				t.Fatalf("epoch %d: want ErrDiverged, got %v", epoch, err)
			}
			params[0].Data[5], params[0].Data[6], params[0].Data[7] = 0, 0, 0
		} else if err != nil {
			t.Fatalf("validate epoch %d: %v", epoch, err)
		}
		perturb(rng, params, 0.3)
	}
}

// TestDenseLevelRoundTrip checks the uncompressed tier end to end.
func TestDenseLevelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := NewExchange(Options{Level: Dense})
	params := randParams(rng, testShapes)
	for epoch := 0; epoch < 3; epoch++ {
		payload, err := x.EncodeInto(nil, 0, "drl", params)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Validate(0, "drl", params, payload); err != nil {
			t.Fatal(err)
		}
		dst := likeSet(params)
		if err := x.DecodeInto(dst, 0, "drl", payload); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, dst, params, "dense")
		perturb(rng, params, 0.5)
	}
}

// TestZeroDeltaCompression re-broadcasts unchanged parameters and checks
// the payload collapses to the closed-form ZeroDeltaSize, far below dense.
func TestZeroDeltaCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, [][2]int{{64, 100}, {1, 100}})
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil {
		t.Fatal(err)
	}
	payload, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(payload), ZeroDeltaSize(params); got != want {
		t.Fatalf("unchanged re-broadcast is %d bytes, ZeroDeltaSize says %d", got, want)
	}
	if dense := DenseSize(params); len(payload)*100 > dense {
		t.Fatalf("zero-delta payload %d bytes not ≪ dense %d", len(payload), dense)
	}
	if got, want := RefireSize(Options{Level: Delta}.withDefaults(), params), len(payload); got != want {
		t.Fatalf("RefireSize %d != observed %d", got, want)
	}
	if got, want := RefireSize(Options{Level: Dense}, params), DenseSize(params); got != want {
		t.Fatalf("dense RefireSize %d != DenseSize %d", got, want)
	}
}

// TestEmptyParamList checks the degenerate zero-tensor broadcast.
func TestEmptyParamList(t *testing.T) {
	x := NewExchange(Options{Level: Delta})
	for epoch := 0; epoch < 2; epoch++ {
		payload, err := x.EncodeInto(nil, 0, "fc", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Validate(0, "fc", nil, payload); err != nil {
			t.Fatal(err)
		}
		if err := x.DecodeInto(nil, 0, "fc", payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingFoldMatchesDenseMean reproduces the dense aggregation
// arithmetic — d = 0; d += set_s[j]·inv for each set in order — through
// FoldLocal + FoldInto over encoded payloads, and demands bit equality.
func TestStreamingFoldMatchesDenseMean(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := NewExchange(Options{Level: Delta})
	const senders = 5
	sets := make([][]*tensor.Matrix, senders)
	payloads := make([][]byte, senders)
	for s := 0; s < senders; s++ {
		sets[s] = randParams(rng, [][2]int{{9, 41}, {1, 41}})
	}
	// Two epochs: keyframe then delta, folding the second.
	for epoch := 0; epoch < 2; epoch++ {
		for s := 0; s < senders; s++ {
			var err error
			payloads[s], err = x.EncodeInto(payloads[s][:0], s, "fc", sets[s])
			if err != nil {
				t.Fatal(err)
			}
			if epoch == 0 {
				perturb(rng, sets[s], 0.4)
			}
		}
	}

	// own snapshot (sender 0's set) first, then payloads 1..N in order.
	inv := 1.0 / float64(senders)
	want := likeSet(sets[0])
	for i := range want {
		for j := range want[i].Data {
			acc := 0.0
			for s := 0; s < senders; s++ {
				acc += sets[s][i].Data[j] * inv
			}
			want[i].Data[j] = acc
		}
	}

	staged := likeSet(sets[0])
	FoldLocal(staged, nil, sets[0], inv)
	for s := 1; s < senders; s++ {
		if err := x.FoldInto(staged, nil, s, "fc", payloads[s], inv); err != nil {
			t.Fatal(err)
		}
	}
	bitsEqual(t, staged, want, "streaming fold")

	// A second identical fold must be deterministic despite ParallelFor.
	again := likeSet(sets[0])
	FoldLocal(again, nil, sets[0], inv)
	for s := 1; s < senders; s++ {
		if err := x.FoldInto(again, nil, s, "fc", payloads[s], inv); err != nil {
			t.Fatal(err)
		}
	}
	bitsEqual(t, again, staged, "fold determinism")
}

// TestKahanFoldAccuracy checks the compensated fold beats the plain fold
// when many small addends would individually round away against a large
// running sum — the shape a wide federation mean takes.
func TestKahanFoldAccuracy(t *testing.T) {
	one := []*tensor.Matrix{tensor.New(1, 1)}
	plain, kahan := likeSet(one), likeSet(one)
	comp := [][]float64{make([]float64, 1)}
	first := []*tensor.Matrix{tensor.NewFromSlice(1, 1, []float64{1})}
	FoldLocal(plain, nil, first, 1)
	FoldLocal(kahan, comp, first, 1)
	small := []*tensor.Matrix{tensor.NewFromSlice(1, 1, []float64{1e-16})}
	for i := 0; i < 1000; i++ {
		FoldLocal(plain, nil, small, 1)
		FoldLocal(kahan, comp, small, 1)
	}
	exact := 1 + 1000e-16
	plainErr := math.Abs(plain[0].Data[0] - exact)
	kahanErr := math.Abs(kahan[0].Data[0] - exact)
	if plainErr == 0 {
		t.Fatal("test lost its cancellation: plain fold is exact")
	}
	if kahanErr >= plainErr {
		t.Fatalf("kahan err %g not below plain err %g", kahanErr, plainErr)
	}
}

// TestTopKErrorFeedback drives repeated broadcasts toward a fixed target
// and checks (a) payloads shrink well below dense, (b) the receiver-side
// reconstruction converges on the target thanks to the residual carry.
func TestTopKErrorFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := NewExchange(Options{Level: TopK, TopKFrac: 0.05})
	target := randParams(rng, [][2]int{{20, 60}})
	params := likeSet(target) // keyframe at zero, far from target
	var payload []byte
	dst := likeSet(target)
	for epoch := 0; epoch < 40; epoch++ {
		if epoch > 0 {
			copySet(params, target)
		}
		var err error
		payload, err = x.EncodeInto(payload[:0], 0, "fc", params)
		if err != nil {
			t.Fatal(err)
		}
		if epoch > 0 && len(payload)*4 > DenseSize(params) {
			t.Fatalf("epoch %d: top-k payload %d bytes, want < dense/4 = %d", epoch, len(payload), DenseSize(params)/4)
		}
		if err := x.Validate(0, "fc", dst, payload); err != nil {
			t.Fatal(err)
		}
		if err := x.DecodeInto(dst, 0, "fc", payload); err != nil {
			t.Fatal(err)
		}
	}
	worst := 0.0
	for i := range target {
		for j := range target[i].Data {
			if d := math.Abs(dst[i].Data[j] - target[i].Data[j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-3 {
		t.Fatalf("after 40 rounds of 5%% top-k, worst reconstruction error %g", worst)
	}
}

// TestTopKNaNFallsBackDense checks a diverged payload under the lossy tier
// ships as a dense keyframe that Validate then rejects as diverged.
func TestTopKNaNFallsBackDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := NewExchange(Options{Level: TopK})
	params := randParams(rng, [][2]int{{5, 30}})
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil {
		t.Fatal(err)
	}
	params[0].Data[3] = math.NaN()
	payload, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	if Codec(payload[4]) != CodecDense {
		t.Fatalf("NaN payload shipped as codec %d, want dense fallback", payload[4])
	}
	if err := x.Validate(0, "fc", params, payload); !errors.Is(err, ErrDiverged) {
		t.Fatalf("want ErrDiverged, got %v", err)
	}
	// The stream must keep working after the divergence.
	params[0].Data[3] = 0.5
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil {
		t.Fatal(err)
	}
}

func copySet(dst, src []*tensor.Matrix) {
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
}

// TestCorruptionDetected flips every byte position in turn and checks the
// payload is always rejected with an error, never accepted or panicking.
func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, [][2]int{{3, 37}})
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil {
		t.Fatal(err)
	}
	perturb(rng, params, 0.3)
	payload, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(payload))
	for pos := 0; pos < len(payload); pos++ {
		copy(bad, payload)
		bad[pos] ^= 1 << uint(pos%8)
		if err := x.Validate(0, "fc", params, bad); err == nil {
			t.Fatalf("flipped bit at byte %d accepted", pos)
		}
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(payload); n++ {
		if err := x.Validate(0, "fc", params, payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestStaleEpochRejected decodes a payload after its reference window has
// moved on and expects a loud error.
func TestStaleEpochRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, [][2]int{{4, 25}})
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil {
		t.Fatal(err)
	}
	perturb(rng, params, 0.5)
	old, err := x.EncodeInto(nil, 0, "fc", params) // epoch 1, ref = epoch 0
	if err != nil {
		t.Fatal(err)
	}
	old = append([]byte(nil), old...)
	perturb(rng, params, 0.5)
	if _, err := x.EncodeInto(nil, 0, "fc", params); err != nil { // epoch 2 overwrites buffer 0
		t.Fatal(err)
	}
	err = x.Validate(0, "fc", params, old)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale payload: got %v, want stale-reference error", err)
	}
	// Unknown stream: no reference state at all.
	if err := x.Validate(9, "fc", params, old); err == nil {
		t.Fatal("payload from unknown stream accepted")
	}
}

// TestShapeMismatchRejected decodes against a template of different shapes.
func TestShapeMismatchRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, [][2]int{{4, 25}})
	payload, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	other := randParams(rng, [][2]int{{5, 25}})
	if err := x.Validate(0, "fc", other, payload); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := x.Validate(0, "fc", nil, payload); err == nil {
		t.Fatal("tensor count mismatch accepted")
	}
}

// TestShapeChangeRekeyframes checks an encoder whose parameter shapes
// change (a re-built model) falls back to a fresh keyframe stream.
func TestShapeChangeRekeyframes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := NewExchange(Options{Level: Delta})
	a := randParams(rng, [][2]int{{4, 25}})
	if _, err := x.EncodeInto(nil, 0, "fc", a); err != nil {
		t.Fatal(err)
	}
	b := randParams(rng, [][2]int{{6, 11}})
	payload, err := x.EncodeInto(nil, 0, "fc", b)
	if err != nil {
		t.Fatal(err)
	}
	if Codec(payload[4]) != CodecDense {
		t.Fatalf("shape change did not re-keyframe (codec %d)", payload[4])
	}
	dst := likeSet(b)
	if err := x.DecodeInto(dst, 0, "fc", payload); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, dst, b, "re-keyframe")
}

// TestStatsCounters checks the exchange's byte accounting.
func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := NewExchange(Options{Level: Delta})
	params := randParams(rng, [][2]int{{8, 16}})
	p1, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	p1 = append([]byte(nil), p1...)
	p2, err := x.EncodeInto(nil, 0, "fc", params)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(0, "fc", params, p2); err != nil {
		t.Fatal(err)
	}
	st := x.Stats()
	if st.PayloadsEncoded != 2 || st.PayloadsDecoded != 1 {
		t.Fatalf("counters %+v", st)
	}
	if want := uint64(len(p1) + len(p2)); st.BytesEncoded != want {
		t.Fatalf("BytesEncoded %d, want %d", st.BytesEncoded, want)
	}
	if want := uint64(2 * DenseSize(params)); st.DenseBytes != want {
		t.Fatalf("DenseBytes %d, want %d", st.DenseBytes, want)
	}
	if st.Ratio() <= 1 {
		t.Fatalf("ratio %v not > 1 for an unchanged re-broadcast", st.Ratio())
	}
}

// TestOptionsValidate covers the config guard rails.
func TestOptionsValidate(t *testing.T) {
	if err := (Options{Level: Delta}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Options{Level: Level(9)}).Validate(); err == nil {
		t.Fatal("bad level accepted")
	}
	if err := (Options{TopKFrac: 1.5}).Validate(); err == nil {
		t.Fatal("bad TopKFrac accepted")
	}
	for l, want := range map[Level]string{Dense: "dense", Delta: "delta", TopK: "topk"} {
		if l.String() != want {
			t.Fatalf("Level(%d).String() = %q", l, l.String())
		}
	}
}

// TestMonotoneKeyMapping spot-checks keyOf/bitsOf as an order-preserving
// bijection over tricky boundaries.
func TestMonotoneKeyMapping(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -5e-324, math.Copysign(0, -1), 0, 5e-324, 1, math.Nextafter(1, 2), 2, 1e300, math.Inf(1)}
	for i, v := range vals {
		b := math.Float64bits(v)
		if got := bitsOf(keyOf(b)); got != b {
			t.Fatalf("round trip of %v: %016x -> %016x", v, b, got)
		}
		if i > 0 {
			prev := keyOf(math.Float64bits(vals[i-1]))
			if keyOf(b) <= prev {
				t.Fatalf("key order broken between %v and %v", vals[i-1], v)
			}
		}
	}
	for _, d := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag round trip of %d -> %d", d, got)
		}
	}
}

// TestDecodeErrorDeterministic pins the reject reason of a hostile payload
// with several malformed segments: segments are walked in parallel, and
// the error reported must be the lowest-indexed segment's, run after run,
// from every decoding entry point. The payload carries a valid checksum so
// only the segment walks can catch it.
func TestDecodeErrorDeterministic(t *testing.T) {
	const rows, cols = 3, segElems // one tensor, three full segments
	params := randParams(rand.New(rand.NewSource(5)), [][2]int{{rows, cols}})
	x := NewExchange(Options{Level: Delta})
	if _, err := x.EncodeInto(nil, 0, "k", params); err != nil { // epoch-0 keyframe
		t.Fatal(err)
	}
	body := appendUvarint(nil, 1)
	body = appendUvarint(body, rows)
	body = appendUvarint(body, cols)
	body = appendUvarint(body, 3)
	for _, run := range []uint64{segElems, segElems - 1, segElems + 7} { // segments 1 and 2 are bad
		seg := appendUvarint([]byte{0}, run)
		body = appendUvarint(body, uint64(len(seg)))
		body = append(body, seg...)
	}
	payload := append(appendHeader(nil, CodecDelta, flagDelta, 1), body...)
	finishHeader(payload, 0)
	if _, err := parseHeader(payload); err != nil {
		t.Fatalf("crafted payload fails the envelope check: %v", err)
	}
	const want = "wire: segment decoded 4095 of 4096 elements"
	staged, comp := likeSet(params), [][]float64{make([]float64, rows*cols)}
	for run := 0; run < 200; run++ {
		for name, err := range map[string]error{
			"Validate":   x.Validate(0, "k", params, payload),
			"FoldInto":   x.FoldInto(staged, comp, 0, "k", payload, 1),
			"DecodeInto": x.DecodeInto(staged, 0, "k", payload),
		} {
			if err == nil || err.Error() != want {
				t.Fatalf("run %d: %s error %v, want %q", run, name, err, want)
			}
		}
	}
}
