package score

import (
	"bytes"
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

// fmaFree lists the packages under internal/ whose arithmetic must not
// fuse.
var fmaFree = []string{"score", "topicmodel"}

// The Go spec lets a compiler fuse x*y + z into one instruction that skips
// the rounding of x*y, and it does on arm64, ppc64le, s390x and riscv64; a
// score computed there would then differ in its last bits from the same
// score on amd64, and so would every answer and golden that reads it; a
// topic model trained or a post folded in there would differ likewise, and
// with it a model's fingerprint and a replayed WAL. Every product this
// package and internal/topicmodel add is rounded explicitly
// (float64(x*y) + z). This cross-compiles the packages in fmaFree for the
// four with the local toolchain and fails on any fused instruction in their
// assembly.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the packages for four architectures")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		args := []string{"build", "-gcflags=-S"}
		for _, pkg := range fmaFree {
			args = append(args, "../"+pkg)
		}
		cmd := exec.Command(goBin, args...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOTOOLCHAIN=local")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go build: %v\n%.2000s", arch, err, out)
		}
		for _, pkg := range fmaFree {
			if !bytes.Contains(out, []byte("internal/"+pkg+".")) {
				t.Fatalf("GOARCH=%s go build -gcflags=-S printed no assembly of %s", arch, pkg)
			}
		}
		for _, m := range fusedOp.FindAllSubmatch(out, -1) {
			t.Errorf("GOARCH=%s: %s at %s", arch, m[2], m[1])
		}
	}
}
