package vkernel

// Execution-layer tests for the fd-plumbing and mmap-region surface:
// dup aliasing, pipe I/O, epoll watch lifecycle, and the mmap/munmap
// region model (double-unmap rejection, length validation,
// per-handler block attribution).

import (
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// plumbTarget compiles the cec oracle spec merged with the plumbing
// surface (cec models an mmap region).
func plumbTarget(t *testing.T) *prog.Target {
	t.Helper()
	pf, err := testCorpus.PlumbingSpecFor("cec")
	if err != nil {
		t.Fatal(err)
	}
	merged := syzlang.MergeDedup(corpus.OracleSpec(testCorpus.Handler("cec")), pf)
	if errs := syzlang.Validate(merged, testCorpus.Env()); len(errs) > 0 {
		t.Fatalf("plumbing target invalid: %v", errs[0])
	}
	tgt, err := prog.Compile(merged, testCorpus.Env())
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func mustRun(t *testing.T, tgt *prog.Target, text string) *Result {
	t.Helper()
	p, err := prog.Deserialize(tgt, text)
	if err != nil {
		t.Fatalf("bad program: %v\n%s", err, text)
	}
	return testKernel.NewVM().Run(p)
}

func TestDupAliasesHandlerFd(t *testing.T) {
	tgt := plumbTarget(t)
	// CEC_ADAP_G_PHYS_ADDR: _IOR('a', 1, int) = 2<<30 | 4<<16 | 0x61<<8 | 1.
	ioctlViaDup := `r0 = openat$cec(0xffffff9c, &"/dev/cec0", 0x2, 0x0)
r1 = dup$cec(r0)
ioctl$CEC_ADAP_G_PHYS_ADDR(r1, 0x80046101, &0x0)
`
	res := mustRun(t, tgt, ioctlViaDup)
	if res.Errno != 0 {
		t.Fatalf("ioctl through dup'd fd failed: %d errors", res.Errno)
	}
	without := mustRun(t, tgt, `r0 = openat$cec(0xffffff9c, &"/dev/cec0", 0x2, 0x0)
ioctl$CEC_ADAP_G_PHYS_ADDR(r0, 0x80046101, &0x0)
`)
	if len(res.Cov) <= len(without.Cov) {
		t.Fatalf("dup covered no extra blocks: %d vs %d", len(res.Cov), len(without.Cov))
	}
	// dup of a bad fd is an error.
	bad := mustRun(t, tgt, `r0 = openat$cec(0xffffff9c, &"/dev/nope", 0x2, 0x0)
dup$cec(0xffffffffffffffff)
`)
	if bad.Errno != 2 {
		t.Fatalf("bad-fd dup not rejected: %d errors", bad.Errno)
	}
}

func TestPipeReadWrite(t *testing.T) {
	tgt := plumbTarget(t)
	res := mustRun(t, tgt, `r0 = pipe$fuzz(0x0)
write$pipe(r0, &[0x41], 0x1)
read$pipe(r0, &[0x0], 0x1)
`)
	if res.Errno != 0 {
		t.Fatalf("pipe I/O failed: %d errors", res.Errno)
	}
	onlyOpen := mustRun(t, tgt, "r0 = pipe$fuzz(0x0)\n")
	// write+read add the generic entries plus both pipe body blocks.
	if len(res.Cov) != len(onlyOpen.Cov)+4 {
		t.Fatalf("pipe I/O blocks off: %d vs %d+4", len(res.Cov), len(onlyOpen.Cov))
	}
}

func TestEpollWatchLifecycle(t *testing.T) {
	tgt := plumbTarget(t)
	ready := mustRun(t, tgt, `r0 = epoll_create$fuzz(0x1)
r1 = pipe$fuzz(0x0)
epoll_ctl$pipe(r0, 0x1, r1, &[])
epoll_wait$fuzz(r0, &[], 0x0, 0x0)
`)
	if ready.Errno != 0 {
		t.Fatalf("epoll add+wait failed: %d errors", ready.Errno)
	}
	idle := mustRun(t, tgt, `r0 = epoll_create$fuzz(0x1)
epoll_wait$fuzz(r0, &[], 0x0, 0x0)
`)
	// The ready path needs a live watch: add covers epoll_add, the
	// target's registration block, and epoll_ready beyond the idle run
	// (which lacks pipe blocks too; compare via the ready-block delta).
	if len(ready.Cov) <= len(idle.Cov) {
		t.Fatalf("watched wait covered no extra blocks: %d vs %d", len(ready.Cov), len(idle.Cov))
	}
	// DEL without a watch is an error; with one it succeeds.
	if res := mustRun(t, tgt, `r0 = epoll_create$fuzz(0x1)
r1 = pipe$fuzz(0x0)
epoll_ctl$pipe(r0, 0x2, r1, &[])
`); res.Errno != 1 {
		t.Fatalf("del-without-watch not rejected: %d errors", res.Errno)
	}
	if res := mustRun(t, tgt, `r0 = epoll_create$fuzz(0x1)
r1 = pipe$fuzz(0x0)
epoll_ctl$pipe(r0, 0x1, r1, &[])
epoll_ctl$pipe(r0, 0x2, r1, &[])
`); res.Errno != 0 {
		t.Fatalf("add-then-del failed: %d errors", res.Errno)
	}
}

func TestMmapRegionModel(t *testing.T) {
	tgt := plumbTarget(t)
	open := `r0 = openat$cec(0xffffff9c, &"/dev/cec0", 0x2, 0x0)
`
	// Page-aligned read/write mapping then unmap: full path, no errors.
	res := mustRun(t, tgt, open+`r1 = mmap$cec(0x0, 0x1000, 0x3, 0x1, r0, 0x0)
munmap$cec(r1, 0x1000)
`)
	if res.Errno != 0 {
		t.Fatalf("mmap+munmap failed: %d errors", res.Errno)
	}
	lo, hi := testKernel.BlockRange("cec")
	mmapBlocks := 0
	openRes := mustRun(t, tgt, open)
	base := map[BlockID]bool{}
	for _, b := range openRes.Cov {
		base[b] = true
	}
	for _, b := range res.Cov {
		if !base[b] && b >= lo && b < hi {
			mmapBlocks++
		}
	}
	// entry + validate + prot-read + prot-write + aligned + munmap
	// (the >=1MB gate stays closed for a 4KiB mapping).
	if mmapBlocks < 5 {
		t.Fatalf("mmap path covered only %d cec blocks", mmapBlocks)
	}

	// Zero-length mapping is rejected and produces no region.
	if res := mustRun(t, tgt, open+`r1 = mmap$cec(0x0, 0x0, 0x3, 0x1, r0, 0x0)
munmap$cec(r1, 0x0)
`); res.Errno != 2 {
		t.Fatalf("zero-length mmap chain: want 2 errors, got %d", res.Errno)
	}

	// Double unmap is rejected.
	if res := mustRun(t, tgt, open+`r1 = mmap$cec(0x0, 0x1000, 0x3, 0x1, r0, 0x0)
munmap$cec(r1, 0x1000)
munmap$cec(r1, 0x1000)
`); res.Errno != 1 {
		t.Fatalf("double munmap: want 1 error, got %d", res.Errno)
	}

	// Unmappable device: dm has no mmap surface; its spec has no
	// mmap$dm either, so mapping a dm fd is unreachable by
	// construction — assert at the model level instead.
	if testCorpus.Handler("dm").MmapBlocks != 0 {
		t.Fatal("dm unexpectedly mappable")
	}
}
