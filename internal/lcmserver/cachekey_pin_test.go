package lcmserver

import (
	"testing"

	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// TestFnCacheKeyPinned pins function-granular cache keys to literal
// values. A key hashes the function's canonical print, so any change to
// the printer's bytes — or to the key's framing — would orphan every
// entry already in a durable or peer cache. These literals must never be
// edited to make the test pass: a mismatch means old entries would stop
// being found.
func TestFnCacheKeyPinned(t *testing.T) {
	const spelled = `func pin(a, b, c) {   # comments and spacing are not part of the key
entry:
  br c left  right
left:
  x   = a + b
  y = -7
  jmp join
right:
  jmp join
join:
  z = a + b
  w = z % -9223372036854775808
  print w
  nop
  ret z
}`
	fns, err := textir.Parse(spelled)
	if err != nil {
		t.Fatal(err)
	}
	canon := fns[0].String()
	random := randprog.ForSeed(12345).String()
	cases := []struct {
		name   string
		req    optimizeRequest
		src    string
		fuel   int
		verify bool
		want   string
	}{
		{"spelled/lcm", optimizeRequest{Mode: "lcm"}, canon, 0, false,
			"f23ee287835e4721c1f8346fd50a147e01b00e50ba868cec2b508f9d3edb4983"},
		{"spelled/bcm-canonical-fuel-verify", optimizeRequest{Mode: "bcm", Canonical: true}, canon, 5000, true,
			"bf137ad0064bf801ade296b9bccd9385c863b0fcafcfe8eed64b1ca05784b422"},
		{"randprog/lcm", optimizeRequest{Mode: "lcm"}, random, 0, false,
			"e69e70742f5c15a7426c93d406813e5893047f9a69f0bc61f93a30cb0c9d2d54"},
	}
	for _, c := range cases {
		if got := fnCacheKey(c.req, c.src, c.fuel, c.verify); got != c.want {
			t.Errorf("%s: fnCacheKey = %s, pinned %s", c.name, got, c.want)
		}
	}
}
