package corpus

import (
	"fmt"
	"sort"

	"kernelgpt/internal/ccode"
	"kernelgpt/internal/syzlang"
)

// Config controls corpus construction.
type Config struct {
	// Scale multiplies the filler-handler population; 1.0 reproduces
	// the paper's Table 1 scale (666 driver / 85 socket handlers
	// scanned), smaller values build fast corpora for tests.
	Scale float64
}

// TestConfig is a small corpus for unit tests: all hand-modeled
// handlers plus a thin filler population.
func TestConfig() Config { return Config{Scale: 0.05} }

// Corpus is the complete synthetic kernel: handler models, rendered
// sources, the extractor index over them, and the constant table.
type Corpus struct {
	Handlers []*Handler
	// Index is the ccode extractor database over the rendered tree.
	Index *ccode.Index
	// Consts is the macro/enum constant table (syz-extract output).
	Consts map[string]uint64
	byName map[string]*Handler
}

// Paper-scale targets from Table 1 and §5.1.
const (
	targetDriversScanned  = 666
	targetDriversLoaded   = 278
	targetDriverNoSpec    = 45 // incomplete handlers with no specs at all
	targetDriverPartial   = 30 // incomplete handlers with partial specs
	targetSocketsScanned  = 85
	targetSocketsLoaded   = 81
	targetSocketNoSpec    = 18
	targetSocketPartial   = 48
	targetUnanalyzableDrv = 5 // KernelGPT fails even after repair
	targetUnanalyzableSck = 9
)

// baseHeader supplies OS-level constants every handler's spec needs.
const baseHeader = `
/* Synthetic uapi base definitions. */
#define AT_FDCWD 0xffffff9c
#define O_RDONLY 0
#define O_WRONLY 1
#define O_RDWR 2
#define O_NONBLOCK 2048
#define SOCK_STREAM 1
#define SOCK_DGRAM 2
#define SOCK_RAW 3
#define SOCK_SEQPACKET 5
#define MISC_DYNAMIC_MINOR 255
#define PROT_READ 1
#define PROT_WRITE 2
#define PROT_EXEC 4
#define MAP_SHARED 1
#define MAP_PRIVATE 2
#define EPOLL_CTL_ADD 1
#define EPOLL_CTL_DEL 2
#define EPOLL_CTL_MOD 3
`

// Build constructs the corpus: hand-modeled handlers, procedural
// fillers up to the configured scale, rendered C sources, extractor
// index, and constant table.
func Build(cfg Config) *Corpus {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	c := &Corpus{byName: map[string]*Handler{}}
	add := func(hs ...*Handler) {
		for _, h := range hs {
			if _, dup := c.byName[h.Name]; dup {
				panic(fmt.Sprintf("corpus: duplicate handler %q", h.Name))
			}
			c.byName[h.Name] = h
			c.Handlers = append(c.Handlers, h)
		}
	}
	add(buildTable5Drivers()...)
	add(buildBugDrivers()...)
	add(buildTable6Sockets()...)
	addFillers(add, c, cfg.Scale)

	files := map[string]string{"include/uapi/base.h": baseHeader}
	for _, h := range c.Handlers {
		files[h.SourcePath()] = RenderC(h)
	}
	c.Index = ccode.NewIndex(files)
	c.Consts = c.Index.ConstTable()
	return c
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// addFillers tops each Table 1 category up to its (scaled) target.
func addFillers(add func(...*Handler), c *Corpus, scale float64) {
	// Count what the hand-modeled set already contributes.
	var drvNoSpec, drvPartial, drvLoaded, sckNoSpec, sckPartial, sckLoaded int
	for _, h := range c.Handlers {
		if !h.Loaded {
			continue
		}
		switch h.Kind {
		case KindDriver:
			drvLoaded++
			switch specStateOf(h) {
			case stateNoSpec:
				drvNoSpec++
			case statePartial:
				drvPartial++
			}
		case KindSocket:
			sckLoaded++
			switch specStateOf(h) {
			case stateNoSpec:
				sckNoSpec++
			case statePartial:
				sckPartial++
			}
		}
	}
	// Quirk palette for incomplete fillers: ~70% carry a quirk that
	// leaves SyzDescribe with nothing (deep delegation, table
	// dispatch) or with wrong values, matching its 20/75 success rate
	// in Table 1. Filler QuirkDispatch handlers delegate twice — one
	// hop beyond the static analyzer's depth.
	quirkPalette := []Quirk{
		QuirkDispatch | QuirkIOCNR,
		QuirkLookupTable | QuirkIOCNR,
		QuirkNodename | QuirkLookupTable | QuirkIOCNR,
		QuirkDispatch,
		QuirkNodename,
		QuirkLookupTable,
		QuirkDispatch | QuirkLenRelation,
		0,
		QuirkCharDev,
		QuirkDispatch | QuirkIOCNR,
	}
	mk := func(i int, base string, loadedQ bool) (string, Quirk) {
		name := fmt.Sprintf("%s%d", base, i)
		q := quirkPalette[i%len(quirkPalette)]
		if !loadedQ {
			if i%2 == 0 {
				q |= QuirkHardware
			} else {
				q |= QuirkDebug
			}
		}
		return name, q
	}

	unDrv := scaled(targetUnanalyzableDrv, scale)
	for i := 0; drvNoSpec < scaled(targetDriverNoSpec, scale); i++ {
		name, q := mk(i, "mdl", true)
		if unDrv > 0 {
			q |= QuirkIndirectCall
			unDrv--
		}
		h := genDriver(name, 2+i%9, q)
		if q.Has(QuirkDispatch) {
			h.DispatchDepth = 2
		}
		if q.Has(QuirkIndirectCall) {
			for j := range h.Cmds {
				h.Cmds[j].Indirect = true
			}
		}
		add(h)
		drvNoSpec++
		drvLoaded++
	}
	for i := 0; drvPartial < scaled(targetDriverPartial, scale); i++ {
		name, q := mk(i, "pdl", true)
		h := genDriver(name, 4+i%8, q)
		if q.Has(QuirkDispatch) {
			h.DispatchDepth = 2
		}
		withSyzkallerCoverage(h, 1+i%3)
		add(h)
		drvPartial++
		drvLoaded++
	}
	knownDrv := 0
	for i := 0; drvLoaded < scaled(targetDriversLoaded, scale); i++ {
		name, _ := mk(i, "cdl", true)
		h := genDriver(name, 2+i%6, 0)
		withSyzkallerCoverage(h, -1)
		// A slice of fully-described drivers carries already-known
		// bugs: the background crashes every suite (including plain
		// Syzkaller) finds in Table 3.
		if i%8 == 1 && knownDrv < scaled(22, scale) && len(h.Cmds) > 1 {
			c := &h.Cmds[len(h.Cmds)/2]
			bug := &Bug{
				Title: "WARNING in " + name + "_do_" + lower(c.Name),
				Class: BugWarning, Cmd: c.Name, Known: true,
			}
			if i%3 == 0 && len(h.Cmds) > 2 {
				bug.PriorCmds = []string{h.Cmds[0].Name}
			}
			c.Bug = bug
			knownDrv++
		}
		add(h)
		drvLoaded++
	}
	total := 0
	for _, h := range c.Handlers {
		if h.Kind == KindDriver {
			total++
		}
	}
	for i := 0; total < scaled(targetDriversScanned, scale); i++ {
		name, q := mk(i, "hwd", false)
		h := genDriver(name, 2+i%5, q)
		h.Loaded = false
		add(h)
		total++
	}

	// Sockets.
	unSck := scaled(targetUnanalyzableSck, scale)
	domain := 100
	for i := 0; sckNoSpec < scaled(targetSocketNoSpec, scale); i++ {
		name := fmt.Sprintf("msk%d", i)
		q := Quirk(0)
		if unSck > 0 {
			q |= QuirkIndirectCall
			unSck--
		}
		h := genSocket(name, domain, 3+i%10, q)
		domain++
		add(h)
		sckNoSpec++
		sckLoaded++
	}
	for i := 0; sckPartial < scaled(targetSocketPartial, scale); i++ {
		name := fmt.Sprintf("psk%d", i)
		h := genSocket(name, domain, 5+i%10, 0)
		domain++
		// Figure 7's socket distribution: a few partial sockets miss
		// >80% of their syscalls; most sit in the middle buckets.
		switch i % 4 {
		case 0:
			withSyzkallerCoverage(h, 1)
		case 1:
			withSyzkallerCoverage(h, 1+len(h.Cmds)/3)
		default:
			withSyzkallerCoverage(h, 1+len(h.Cmds)/2)
		}
		h.SyzkallerCalls = []SockCallKind{SockRecvfrom, SockBind}
		add(h)
		sckPartial++
		sckLoaded++
	}
	for i := 0; sckLoaded < scaled(targetSocketsLoaded, scale); i++ {
		h := genSocket(fmt.Sprintf("csk%d", i), domain, 3+i%6, 0)
		domain++
		withSyzkallerCoverage(h, -1)
		if i%4 == 1 && len(h.Cmds) > 0 {
			c := &h.Cmds[0]
			c.Bug = &Bug{
				Title: "WARNING in csk" + fmt.Sprint(i) + "_set_" + lower(c.Name),
				Class: BugWarning, Cmd: c.Name, Known: true,
			}
		}
		add(h)
		sckLoaded++
	}
	total = 0
	for _, h := range c.Handlers {
		if h.Kind == KindSocket {
			total++
		}
	}
	for i := 0; total < scaled(targetSocketsScanned, scale); i++ {
		h := genSocket(fmt.Sprintf("hws%d", i), domain, 3, QuirkHardware)
		domain++
		h.Loaded = false
		add(h)
		total++
	}
}

// specState classifies a handler's existing-description coverage.
type specState int

// Spec states.
const (
	stateNoSpec specState = iota
	statePartial
	stateComplete
)

func specStateOf(h *Handler) specState {
	if h.SyzkallerComplete {
		return stateComplete
	}
	if h.SyzkallerCmds == nil {
		return stateNoSpec
	}
	described := len(h.SyzkallerCmds)
	totalCalls := len(h.Cmds)
	if h.Kind == KindSocket {
		totalCalls += len(h.Socket.Calls)
	}
	if described >= totalCalls {
		return stateComplete
	}
	return statePartial
}

// MissingFraction is the fraction of the handler's syscalls lacking
// existing descriptions (the x-axis of Figure 7).
func MissingFraction(h *Handler) float64 {
	totalCalls := len(h.Cmds) + 1 // +1 for openat/socket
	if h.Kind == KindSocket {
		totalCalls += len(h.Socket.Calls)
	}
	described := 0
	if h.SyzkallerComplete {
		return 0
	}
	if h.SyzkallerCmds != nil {
		described = len(h.SyzkallerCmds) + 1
	}
	missing := totalCalls - described
	if missing < 0 {
		missing = 0
	}
	return float64(missing) / float64(totalCalls)
}

// Handler returns the named handler, or nil.
func (c *Corpus) Handler(name string) *Handler { return c.byName[name] }

// Loaded returns every loaded handler of the given kind.
func (c *Corpus) Loaded(kind Kind) []*Handler {
	var out []*Handler
	for _, h := range c.Handlers {
		if h.Loaded && h.Kind == kind {
			out = append(out, h)
		}
	}
	return out
}

// Incomplete returns the loaded handlers of the given kind with
// missing descriptions — the spec-generation worklist (§5.1).
func (c *Corpus) Incomplete(kind Kind) []*Handler {
	var out []*Handler
	for _, h := range c.Loaded(kind) {
		if specStateOf(h) != stateComplete {
			out = append(out, h)
		}
	}
	return out
}

// Env returns the syzlang validation environment for this corpus.
func (c *Corpus) Env() *syzlang.Env { return syzlang.NewEnv(c.Consts) }

// ExistingSuite merges the human-written Syzkaller descriptions of
// every loaded handler into one file — the paper's "Syzkaller"
// baseline suite.
func (c *Corpus) ExistingSuite() *syzlang.File {
	out := &syzlang.File{}
	names := make([]string, 0, len(c.Handlers))
	for _, h := range c.Handlers {
		if h.Loaded {
			names = append(names, h.Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		out.Merge(SyzkallerSpec(c.byName[n]))
	}
	return out
}

// AllBugs returns every *new* planted bug in the corpus keyed by
// title (Table 4's population). Known background bugs are excluded.
func (c *Corpus) AllBugs() map[string]*Bug {
	out := map[string]*Bug{}
	for _, h := range c.Handlers {
		for _, b := range h.Bugs() {
			if !b.Known {
				out[b.Title] = b
			}
		}
	}
	return out
}

func lower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= 'A' && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		out[i] = ch
	}
	return string(out)
}
