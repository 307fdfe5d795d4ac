// Fixture for the detorder checker.
package fixture

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
)

func encodeInLoop(m map[string]int) {
	enc := json.NewEncoder(os.Stdout)
	for k := range m {
		enc.Encode(k) // want `map iteration order escapes into .*Encoder\.Encode`
	}
}

func printInLoop(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map iteration order escapes into fmt.Println`
	}
}

func digestInLoop(m map[string]string) [32]byte {
	h := sha256.New()
	for _, v := range m {
		h.Write([]byte(v)) // want `map iteration order escapes into .*\.Write`
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `slice keys collects map-range values but is never sorted`
	}
	return keys
}

func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func collectHelperSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(ks []string) { sort.Strings(ks) }

func reduce(m map[string]int) (total int) {
	for _, v := range m {
		total += v
	}
	return total
}

func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func rngDraw(m map[string]int, r *rand.Rand) (n int) {
	for range m {
		n += r.Intn(3) // want `rand\.Rand draw`
	}
	return n
}

func sendInLoop(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `map iteration order escapes through a channel send`
	}
}

func annotated(m map[string]int) []string {
	var out []string
	//syzlint:unordered
	for k := range m {
		out = append(out, k)
	}
	return out
}

func innerScoped(m map[string]map[string]int) map[string][]string {
	out := make(map[string][]string, len(m))
	for outerKey, inner := range m {
		var ks []string
		for k := range inner {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[outerKey] = ks
	}
	return out
}

func fieldCollect(m map[string]int) struct{ Names []string } {
	var doc struct{ Names []string }
	for k := range m {
		doc.Names = append(doc.Names, k) // want `slice doc.Names collects map-range values but is never sorted`
	}
	return doc
}

// firstMatch returns from inside the range: which key wins depends on
// iteration order whenever more than one entry matches. The checker
// deliberately stays silent here (see the package comment): the same
// shape is an ordinary unique-key lookup when at most one entry can
// match, and uniqueness is not visible in the syntax.
func firstMatch(m map[string]int, want int) (string, bool) {
	for k, v := range m {
		if v == want {
			return k, true
		}
	}
	return "", false
}

// minMatch is the order-free form of firstMatch: a min reduction.
func minMatch(m map[string]int, want int) (best string, found bool) {
	for k, v := range m {
		if v == want && (!found || k < best) {
			best, found = k, true
		}
	}
	return best, found
}
