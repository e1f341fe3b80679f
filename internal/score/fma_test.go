package score

import (
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// fusedOp matches a fused multiply-add or multiply-subtract in the
// compiler's -S listing of arm64 (FMADDD, FNMSUBD, …), ppc64le and s390x
// (FMADD, FMSUB, …) and riscv64 (FMADDD, FNMSUBD, …), with the source
// position it was compiled from.
var fusedOp = regexp.MustCompile(`\((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// The Go spec lets a compiler fuse x*y + z into one instruction that skips
// the rounding of x*y, and it does on arm64, ppc64le, s390x and riscv64; a
// score computed there would then differ in its last bits from the same
// score on amd64, and so would every answer and golden that reads it. Every
// product this package adds is rounded explicitly (float64(x*y) + z). This
// cross-compiles the package for the four with the local toolchain and
// fails on any fused instruction in its assembly.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package for four architectures")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goBin, "build", "-gcflags=-S", ".")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOTOOLCHAIN=local")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%.2000s", arch, err, out)
		}
		if len(out) == 0 {
			t.Fatalf("GOARCH=%s go build -gcflags=-S printed no assembly", arch)
		}
		for _, m := range fusedOp.FindAllSubmatch(out, -1) {
			t.Errorf("GOARCH=%s: %s at %s", arch, m[2], m[1])
		}
	}
}
