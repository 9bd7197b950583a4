package canvas

import (
	"strings"
	"testing"
	"testing/quick"

	"canvassing/internal/imaging"
	"canvassing/internal/machine"
	"canvassing/internal/raster"
)

func TestParseColorHex(t *testing.T) {
	cases := map[string]raster.RGBA{
		"#000":      {A: 255},
		"#fff":      {R: 255, G: 255, B: 255, A: 255},
		"#f00":      {R: 255, A: 255},
		"#ff0000":   {R: 255, A: 255},
		"#00ff007f": {G: 255, A: 127},
		"#1a2b3c":   {R: 0x1a, G: 0x2b, B: 0x3c, A: 255},
	}
	for in, want := range cases {
		got, ok := ParseColor(in)
		if !ok || got != want {
			t.Fatalf("ParseColor(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
}

func TestParseColorFunctions(t *testing.T) {
	c, ok := ParseColor("rgb(10, 20, 30)")
	if !ok || c != (raster.RGBA{R: 10, G: 20, B: 30, A: 255}) {
		t.Fatalf("rgb: %v %v", c, ok)
	}
	c, ok = ParseColor("rgba(10,20,30,0.5)")
	if !ok || c.A < 126 || c.A > 129 {
		t.Fatalf("rgba alpha: %v", c)
	}
	c, ok = ParseColor("hsl(120, 100%, 50%)")
	if !ok || c.G != 255 || c.R != 0 {
		t.Fatalf("hsl green: %v", c)
	}
	c, ok = ParseColor("ORANGE")
	if !ok || c.R != 255 || c.G != 165 {
		t.Fatalf("named: %v", c)
	}
}

func TestParseColorInvalid(t *testing.T) {
	for _, bad := range []string{"", "#12", "#xyz123", "rgb(1,2)", "rgba(a,b,c,d)", "blurple", "hsl(1,2,3)"} {
		if _, ok := ParseColor(bad); ok {
			t.Fatalf("%q should not parse", bad)
		}
	}
}

func TestDefaultSize(t *testing.T) {
	e := New(nil)
	if e.Width() != 300 || e.Height() != 150 {
		t.Fatal("default canvas must be 300x150")
	}
}

func TestSetWidthResetsBitmap(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#f00")
	ctx.FillRect(0, 0, 50, 50)
	if e.Image().At(10, 10).A == 0 {
		t.Fatal("rect should have painted")
	}
	e.SetWidth(200)
	if e.Image().At(10, 10).A != 0 {
		t.Fatal("setting width must clear the bitmap")
	}
	if e.Image().W != 200 {
		t.Fatal("new width")
	}
	e.SetHeight(-5)
	if e.Image().H != 150 {
		t.Fatal("non-positive height selects default")
	}
}

func TestGetContextKinds(t *testing.T) {
	e := New(nil)
	if e.GetContext("webgl") != nil {
		t.Fatal("only 2d supported")
	}
	a := e.GetContext("2d")
	b := e.GetContext("2D")
	if a == nil || a != b {
		t.Fatal("same context object must be returned")
	}
}

func TestFillRectPixels(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#00ff00")
	ctx.FillRect(10, 10, 20, 20)
	if got := e.Image().At(20, 20); got.G != 255 || got.R != 0 {
		t.Fatalf("interior: %v", got)
	}
	if e.Image().At(5, 5).A != 0 {
		t.Fatal("exterior must be transparent")
	}
}

func TestInvalidStyleKeepsPrevious(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#0000ff")
	ctx.SetFillStyle("not-a-color")
	ctx.FillRect(0, 0, 10, 10)
	if got := e.Image().At(5, 5); got.B != 255 {
		t.Fatalf("invalid style should be ignored: %v", got)
	}
	if ctx.FillStyle() != "#0000ff" {
		t.Fatal("fillStyle getter should report last valid value")
	}
}

func TestTransformAffectsDrawing(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.Translate(100, 0)
	ctx.SetFillStyle("#f00")
	ctx.FillRect(0, 0, 10, 10)
	if e.Image().At(105, 5).R != 255 {
		t.Fatal("translate should shift the rect")
	}
	if e.Image().At(5, 5).A != 0 {
		t.Fatal("origin should be empty")
	}
}

func TestSaveRestore(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#ff0000")
	ctx.Save()
	ctx.SetFillStyle("#0000ff")
	ctx.Translate(50, 0)
	ctx.Restore()
	ctx.FillRect(0, 0, 10, 10)
	got := e.Image().At(5, 5)
	if got.R != 255 || got.B != 0 {
		t.Fatalf("restore should bring back red fill at origin: %v", got)
	}
	// Restore on empty stack is a no-op.
	ctx.Restore()
	ctx.Restore()
}

func TestPathFillTriangle(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.MoveTo(50, 10)
	ctx.LineTo(90, 90)
	ctx.LineTo(10, 90)
	ctx.ClosePath()
	ctx.SetFillStyle("#000")
	ctx.Fill("")
	if e.Image().At(50, 60).A == 0 {
		t.Fatal("triangle interior should fill")
	}
	if e.Image().At(10, 20).A != 0 {
		t.Fatal("triangle exterior should be empty")
	}
}

func TestArcFill(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.Arc(100, 75, 40, 0, 6.2832, false)
	ctx.SetFillStyle("blue")
	ctx.Fill("")
	if e.Image().At(100, 75).B != 255 {
		t.Fatal("circle center")
	}
	if e.Image().At(100, 75-39).B == 0 {
		t.Fatal("near top of circle")
	}
	if e.Image().At(100, 75-45).A != 0 {
		t.Fatal("outside circle")
	}
}

func TestEvenOddFill(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.Rect(10, 10, 80, 80)
	ctx.Rect(30, 30, 40, 40)
	ctx.SetFillStyle("#000")
	ctx.Fill("evenodd")
	if e.Image().At(50, 50).A != 0 {
		t.Fatal("evenodd hole")
	}
	if e.Image().At(15, 50).A == 0 {
		t.Fatal("evenodd ring")
	}
}

func TestStrokePath(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.MoveTo(10, 75)
	ctx.LineTo(200, 75)
	ctx.SetStrokeStyle("#f0f")
	ctx.SetLineWidth(5)
	ctx.Stroke()
	if got := e.Image().At(100, 75); got.R != 255 || got.B != 255 {
		t.Fatalf("stroke center: %v", got)
	}
	if e.Image().At(100, 65).A != 0 {
		t.Fatal("outside stroke width")
	}
}

func TestFillTextPaintsAndMeasures(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFont("16px Arial")
	m := ctx.MeasureText("Hello")
	if m.Width <= 0 {
		t.Fatal("measureText")
	}
	ctx.SetFillStyle("#000")
	ctx.FillText("Hello", 10, 100)
	painted := 0
	for y := 80; y < 105; y++ {
		for x := 10; x < 80; x++ {
			if e.Image().At(x, y).A > 0 {
				painted++
			}
		}
	}
	if painted < 30 {
		t.Fatalf("text should paint a reasonable number of pixels, got %d", painted)
	}
}

func TestTextAlignAndBaseline(t *testing.T) {
	leftmost := func(align, baseline string) (int, int) {
		e := New(nil)
		ctx := e.GetContext("2d")
		ctx.SetFont("20px Arial")
		ctx.SetTextAlign(align)
		ctx.SetTextBaseline(baseline)
		ctx.SetFillStyle("#000")
		ctx.FillText("M", 150, 75)
		minX, minY := 999, 999
		for y := 0; y < 150; y++ {
			for x := 0; x < 300; x++ {
				if e.Image().At(x, y).A > 0 {
					if x < minX {
						minX = x
					}
					if y < minY {
						minY = y
					}
				}
			}
		}
		return minX, minY
	}
	lx, _ := leftmost("left", "alphabetic")
	cx, _ := leftmost("center", "alphabetic")
	rx, _ := leftmost("right", "alphabetic")
	if !(rx < cx && cx < lx) {
		t.Fatalf("align ordering: left=%d center=%d right=%d", lx, cx, rx)
	}
	_, yAlpha := leftmost("left", "alphabetic")
	_, yTop := leftmost("left", "top")
	if yTop <= yAlpha {
		t.Fatalf("top baseline should draw lower: %d vs %d", yTop, yAlpha)
	}
}

func TestEmojiRendersInColor(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFont("30px Arial")
	ctx.SetFillStyle("#000")
	ctx.FillText("\U0001F603", 100, 100)
	yellow := 0
	for y := 0; y < 150; y++ {
		for x := 0; x < 300; x++ {
			px := e.Image().At(x, y)
			if px.R > 200 && px.G > 150 && px.B < 120 && px.A > 0 {
				yellow++
			}
		}
	}
	if yellow < 20 {
		t.Fatalf("emoji face should be yellow, got %d yellow px", yellow)
	}
}

func TestGradientFill(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	g := ctx.CreateLinearGradient(0, 0, 300, 0)
	g.AddColorStop(0, "#000000")
	g.AddColorStop(1, "#ffffff")
	ctx.SetFillGradient(g.Paint())
	ctx.FillRect(0, 0, 300, 150)
	l, r := e.Image().At(10, 75), e.Image().At(290, 75)
	if l.R >= r.R {
		t.Fatalf("gradient should brighten: %v -> %v", l, r)
	}
}

func TestGlobalAlphaAndComposite(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#ffffff")
	ctx.FillRect(0, 0, 300, 150)
	ctx.SetGlobalAlpha(0.5)
	ctx.SetFillStyle("#000000")
	ctx.FillRect(0, 0, 300, 150)
	mid := e.Image().At(150, 75)
	if mid.R < 110 || mid.R > 145 {
		t.Fatalf("half-alpha black over white: %v", mid)
	}
	if ctx.GlobalCompositeOperation() != "source-over" {
		t.Fatal("default op")
	}
	ctx.SetGlobalCompositeOperation("multiply")
	if ctx.GlobalCompositeOperation() != "multiply" {
		t.Fatal("op setter")
	}
	ctx.SetGlobalCompositeOperation("no-such-op")
	if ctx.GlobalCompositeOperation() != "multiply" {
		t.Fatal("invalid op should be ignored")
	}
}

func TestClipRestrictsPainting(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.Rect(50, 50, 40, 40)
	ctx.Clip()
	ctx.SetFillStyle("#f00")
	ctx.FillRect(0, 0, 300, 150)
	if e.Image().At(60, 60).R != 255 {
		t.Fatal("inside clip")
	}
	if e.Image().At(10, 10).A != 0 {
		t.Fatal("outside clip")
	}
}

func TestClearRect(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#00f")
	ctx.FillRect(0, 0, 100, 100)
	ctx.ClearRect(20, 20, 30, 30)
	if e.Image().At(30, 30).A != 0 {
		t.Fatal("cleared region")
	}
	if e.Image().At(10, 10).B != 255 {
		t.Fatal("outside clear untouched")
	}
}

func TestImageDataRoundtrip(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#ff0000")
	ctx.FillRect(0, 0, 10, 10)
	d := ctx.GetImageData(0, 0, 10, 10)
	if d.W != 10 || d.H != 10 || len(d.Pix) != 400 {
		t.Fatal("image data shape")
	}
	if d.Pix[0] != 255 || d.Pix[3] != 255 {
		t.Fatalf("pixel content: %v", d.Pix[:4])
	}
	blank := ctx.CreateImageData(10, 10)
	ctx.PutImageData(blank, 0, 0)
	if e.Image().At(5, 5).A != 0 {
		t.Fatal("putImageData should overwrite without blending")
	}
	if z := ctx.GetImageData(0, 0, 0, 0); z.W != 0 {
		t.Fatal("degenerate getImageData")
	}
}

func TestDrawImageBlit(t *testing.T) {
	src := New(nil)
	sctx := src.GetContext("2d")
	sctx.SetFillStyle("#0f0")
	sctx.FillRect(0, 0, 20, 20)

	dst := New(nil)
	dctx := dst.GetContext("2d")
	dctx.DrawImage(src, 30, 30)
	if dst.Image().At(35, 35).G != 255 {
		t.Fatal("blit should copy pixels")
	}
	dctx.DrawImage(nil, 0, 0) // must not panic
}

func TestToDataURLFormats(t *testing.T) {
	e := New(nil)
	u := e.ToDataURL("", 0)
	if !strings.HasPrefix(u, "data:image/png;base64,") {
		t.Fatalf("default format: %.40s", u)
	}
	if !strings.HasPrefix(e.ToDataURL("image/webp", 0.9), "data:image/webp;base64,") {
		t.Fatal("webp")
	}
	if !strings.HasPrefix(e.ToDataURL("image/jpeg", 0.5), "data:image/jpeg;base64,") {
		t.Fatal("jpeg")
	}
}

func TestDeterministicFingerprint(t *testing.T) {
	render := func(p *machine.Profile) string {
		e := New(p)
		ctx := e.GetContext("2d")
		ctx.SetFillStyle("#f60")
		ctx.FillRect(125, 1, 62, 20)
		ctx.SetFillStyle("#069")
		ctx.SetFont("11pt Arial")
		ctx.FillText("Cwm fjordbank glyphs vext quiz, \U0001F603", 2, 15)
		ctx.SetGlobalCompositeOperation("multiply")
		ctx.SetFillStyle("rgb(255,0,255)")
		ctx.BeginPath()
		ctx.Arc(50, 50, 50, 0, 6.2832, false)
		ctx.Fill("")
		return e.ToDataURL("", 0)
	}
	intel1 := render(machine.Intel())
	intel2 := render(machine.Intel())
	if intel1 != intel2 {
		t.Fatal("same machine must produce identical canvases")
	}
	m1 := render(machine.AppleM1())
	if m1 == intel1 {
		t.Fatal("different machines must produce different canvases")
	}
	m1again := render(machine.AppleM1())
	if m1 != m1again {
		t.Fatal("M1 rendering must also be deterministic")
	}
}

func TestExtractHookApplies(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#123456")
	ctx.FillRect(0, 0, 300, 150)
	base := e.ToDataURL("", 0)
	e.SetExtractHook(func(img *raster.Image) *raster.Image {
		out := img.Clone()
		out.Set(0, 0, raster.RGBA{R: 1, G: 2, B: 3, A: 255})
		return out
	})
	noised := e.ToDataURL("", 0)
	if base == noised {
		t.Fatal("extract hook should change output")
	}
	// The backing image must be untouched.
	if got := e.Image().At(0, 0); got == (raster.RGBA{R: 1, G: 2, B: 3, A: 255}) {
		t.Fatal("hook must not mutate the canvas")
	}
	d := ctx.GetImageData(0, 0, 1, 1)
	if d.Pix[0] != 1 || d.Pix[1] != 2 {
		t.Fatal("hook should apply to getImageData too")
	}
}

type recordingTracer struct {
	calls []string
	rets  map[string]string
}

func (r *recordingTracer) Trace(iface, member string, args []string, ret string) {
	r.calls = append(r.calls, iface+"."+member)
	if r.rets == nil {
		r.rets = map[string]string{}
	}
	r.rets[iface+"."+member] = ret
}

func TestTracerSeesCalls(t *testing.T) {
	e := New(nil)
	tr := &recordingTracer{}
	e.SetTracer(tr)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#f00")
	ctx.FillRect(0, 0, 10, 10)
	ctx.Save()
	ctx.Restore()
	u := e.ToDataURL("", 0)

	want := []string{
		"HTMLCanvasElement.getContext",
		"CanvasRenderingContext2D.fillStyle=",
		"CanvasRenderingContext2D.fillRect",
		"CanvasRenderingContext2D.save",
		"CanvasRenderingContext2D.restore",
		"HTMLCanvasElement.toDataURL",
	}
	for _, w := range want {
		found := false
		for _, c := range tr.calls {
			if c == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing traced call %s in %v", w, tr.calls)
		}
	}
	if tr.rets["HTMLCanvasElement.toDataURL"] != u {
		t.Fatal("toDataURL return value must be recorded verbatim")
	}
}

func TestToDataURLPNGDimensions(t *testing.T) {
	e := New(nil)
	e.SetWidth(64)
	e.SetHeight(32)
	u := e.ToDataURL("", 0)
	_, data, err := imaging.ParseDataURL(u)
	if err != nil {
		t.Fatal(err)
	}
	w, h, err := imaging.PNGSize(data)
	if err != nil || w != 64 || h != 32 {
		t.Fatalf("png size %dx%d err=%v", w, h, err)
	}
}

func TestShadow(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.SetShadow("#00f", 10, 10, 0)
	ctx.SetFillStyle("#f00")
	ctx.FillRect(50, 50, 20, 20)
	// Shadow region to the lower-right should carry blue.
	found := false
	for y := 68; y < 82; y++ {
		for x := 68; x < 82; x++ {
			if px := e.Image().At(x, y); px.B > 100 && px.R < 100 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("shadow silhouette should paint offset blue")
	}
}

func TestBezierAndQuadraticPath(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.MoveTo(20, 100)
	ctx.BezierCurveTo(60, 10, 140, 10, 180, 100)
	ctx.QuadraticCurveTo(200, 120, 220, 100)
	ctx.ClosePath()
	ctx.SetFillStyle("#000")
	ctx.Fill("")
	if e.Image().At(100, 80).A == 0 {
		t.Fatal("curved region should fill")
	}
}

func TestEllipse(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	ctx.BeginPath()
	ctx.Ellipse(150, 75, 60, 30, 0, 0, 6.2832, false)
	ctx.SetFillStyle("#0a0")
	ctx.Fill("")
	if e.Image().At(150, 75).G == 0 {
		t.Fatal("ellipse center")
	}
	if e.Image().At(150+55, 75).G == 0 {
		t.Fatal("wide axis inside")
	}
	if e.Image().At(150, 75-35).A != 0 {
		t.Fatal("short axis outside")
	}
}

// Property: for any synthetic machine label, rendering the same command
// stream twice is byte-identical, and (almost always) differs from the
// Intel reference — the §3.1 stability/discrimination invariant that the
// entire clustering methodology rests on.
func TestFingerprintInvariantProperty(t *testing.T) {
	render := func(p *machine.Profile, text string) string {
		e := New(p)
		ctx := e.GetContext("2d")
		ctx.SetFont("13px Arial")
		ctx.SetFillStyle("#345")
		ctx.FillText(text, 3, 30)
		ctx.BeginPath()
		ctx.Arc(200, 75, 40.5, 0.3, 5.9, false)
		ctx.Stroke()
		return e.ToDataURL("", 0)
	}
	intelRef := render(machine.Intel(), "probe text 123")
	f := func(label string) bool {
		if label == "" {
			return true
		}
		p := machine.Synthetic(label)
		a := render(p, "probe text 123")
		b := render(p, "probe text 123")
		if a != b {
			return false // stability violated
		}
		// Discrimination: a synthetic machine whose parameters happen to
		// coincide with Intel's is astronomically unlikely but allowed.
		return a != intelRef || p.Seed == machine.Intel().Seed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFingerprintCanvas(b *testing.B) {
	p := machine.Intel()
	for i := 0; i < b.N; i++ {
		e := New(p)
		ctx := e.GetContext("2d")
		ctx.SetFont("11pt Arial")
		ctx.SetFillStyle("#f60")
		ctx.FillRect(125, 1, 62, 20)
		ctx.SetFillStyle("#069")
		ctx.FillText("Cwm fjordbank glyphs vext quiz", 2, 15)
		_ = e.ToDataURL("", 0)
	}
}

// TestOversizedCanvasGetsEmptyBitmap: a side past maxSide or an area
// past maxArea allocates no bitmap. Drawing on it is a no-op and
// toDataURL gives the fixed "data:,"; the attributes keep the values
// the script set. A canvas at the caps is still backed.
func TestOversizedCanvasGetsEmptyBitmap(t *testing.T) {
	for _, size := range [][2]int{{1_000_000_000, 150}, {300, maxSide + 1}, {4097, 4096}} {
		e := New(nil)
		e.SetWidth(size[0])
		e.SetHeight(size[1])
		if img := e.Image(); img.W != 0 || img.H != 0 || len(img.Pix) != 0 {
			t.Fatalf("%dx%d canvas allocated a %dx%d bitmap", size[0], size[1], img.W, img.H)
		}
		if e.Width() != size[0] || e.Height() != size[1] {
			t.Fatalf("attributes = %dx%d, want %dx%d", e.Width(), e.Height(), size[0], size[1])
		}
		ctx := e.GetContext("2d")
		ctx.SetFillStyle("#f00")
		ctx.FillRect(0, 0, 50, 50)
		for _, format := range []string{"", "image/jpeg"} {
			if got := e.ToDataURL(format, 0); got != "data:," {
				t.Fatalf("%dx%d toDataURL(%q) = %.40q, want data:,", size[0], size[1], format, got)
			}
		}
		for _, d := range []*ImageData{ctx.GetImageData(0, 0, size[0], size[1]), ctx.CreateImageData(size[0], size[1])} {
			if d.W != 0 || len(d.Pix) != 0 {
				t.Fatalf("image data of %dx%d = %dx%d, want empty", size[0], size[1], d.W, d.H)
			}
		}
	}

	// The caps are inclusive, and shrinking an oversized canvas brings
	// its bitmap back.
	if !bitmapFits(4096, 4096) || !bitmapFits(maxSide, 1) || bitmapFits(maxSide+1, 1) || bitmapFits(4097, 4096) {
		t.Fatal("bitmap caps must admit exactly sides <= 32767 and areas <= 4096*4096")
	}
	e := New(nil)
	e.SetWidth(maxSide + 1)
	e.SetWidth(300)
	if e.Image().W != 300 || !strings.HasPrefix(e.ToDataURL("", 0), "data:image/png;base64,") {
		t.Fatal("a canvas shrunk back under the caps must be backed and encode again")
	}
}
