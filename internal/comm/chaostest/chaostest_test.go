package chaostest

import (
	"strings"
	"testing"
)

// TestResolveSeedRejectsBadValue: a seed override that does not parse is an
// error naming the value, not a silent fall-back to the suite default (a
// mistyped replay would otherwise "pass" a seed it never ran).
func TestResolveSeedRejectsBadValue(t *testing.T) {
	t.Setenv(SeedEnv, "12x")
	if seed, err := ResolveSeed(7); err == nil || !strings.Contains(err.Error(), `"12x"`) {
		t.Fatalf("ResolveSeed with %s=12x = %d, %v; want an error naming \"12x\"", SeedEnv, seed, err)
	}
	t.Setenv(SeedEnv, "-31")
	if seed, err := ResolveSeed(7); err != nil || seed != -31 {
		t.Fatalf("ResolveSeed with %s=-31 = %d, %v; want -31", SeedEnv, seed, err)
	}
	t.Setenv(SeedEnv, "")
	if seed, err := ResolveSeed(7); err != nil || seed != 7 {
		t.Fatalf("ResolveSeed with %s unset = %d, %v; want the default 7", SeedEnv, seed, err)
	}
}
