package analysis

// The fact cache keys each package's post-suppression findings by a
// content hash of everything that can influence them:
//
//   - the cache format version and the analyzer set,
//   - the identity of the whole loaded package set (a partial -only or
//     package-filtered run must not share entries with a full run),
//   - the module-wide interface-method-name set (it feeds fencehygiene's
//     dynamic-dispatch exemption and is not confined to any closure),
//   - the source bytes of every package in the interprocedural closure.
//
// The closure is bidirectional: findings in P depend on P's callees
// (their summaries, transitively — the import cone) and on P's callers
// (cbgate and persistorder judge calling contexts — the reverse-import
// cone), and each caller's context again depends on its own callees. So
// closure(P) = deps*(rdeps*(P) ∪ {P}). Anything outside it cannot change
// P's findings, which is what makes a hit sound to replay byte-for-byte.
//
// Each entry also records the (file, line, analyzer) triples its
// //easyio:allow comments suppressed, so a warm run replays suppression
// usage and staleallow stays exact across cached packages.
//
// Global analyzers (Analyzer.Global) store their module-wide findings in
// one additional entry keyed by the content of *every* package — their
// findings can depend on packages outside any per-package closure (a
// goroutine capture anywhere reclassifies a type; a lock edge anywhere
// can close a cycle), so the whole-module key is the narrowest sound
// one. A warm unchanged run still hits everything and never type-checks;
// any edit re-runs the global trio plus the edited closures.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// cacheVersion invalidates every entry when the analyzer semantics or
// the entry format change. v2: global-analyzer entries (runner.go) and
// LRU eviction. v3: typestate protocol findings (with traces) in the
// entries, and the protocol-spec fingerprint in the key prelude. v4:
// fencehygiene runs on the typestate engine, so os.Exit and log.Fatal*
// end a path like panic and no longer leak pending stores.
const cacheVersion = "easyio-vet-v4"

// defaultCacheEntries bounds the cache directory: edits churn closure
// hashes, so without a cap the directory grows by a few entries per
// distinct tree state forever. ~500 entries is months of active editing
// yet only a few MB.
const defaultCacheEntries = 512

// Cache is a directory of per-key JSON entries with LRU eviction: get
// refreshes an entry's mtime, put prunes the oldest entries beyond
// maxEntries.
type Cache struct {
	dir        string
	maxEntries int
}

// OpenCache returns a cache rooted at dir (created lazily on first put)
// with the default entry cap.
func OpenCache(dir string) *Cache { return &Cache{dir: dir, maxEntries: defaultCacheEntries} }

// WithMaxEntries overrides the entry cap; n <= 0 disables eviction.
func (c *Cache) WithMaxEntries(n int) *Cache {
	c.maxEntries = n
	return c
}

// UsedAllow records one suppression consumption so staleallow can be
// judged without re-running the analyzers of a cached package.
type UsedAllow struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
}

type cacheEntry struct {
	Version  string       `json:"version"`
	Findings []Diagnostic `json:"findings"`
	Used     []UsedAllow  `json:"used"`
}

func (c *Cache) get(key string) (cacheEntry, bool) {
	if c == nil || key == "" {
		return cacheEntry{}, false
	}
	b, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return cacheEntry{}, false
	}
	var ent cacheEntry
	if json.Unmarshal(b, &ent) != nil || ent.Version != cacheVersion {
		return cacheEntry{}, false
	}
	// LRU touch: a hit is a use; eviction order follows mtime.
	now := time.Now()
	_ = os.Chtimes(filepath.Join(c.dir, key+".json"), now, now)
	return ent, true
}

func (c *Cache) put(key string, ent cacheEntry) {
	if c == nil || key == "" {
		return
	}
	ent.Version = cacheVersion
	b, err := json.Marshal(ent)
	if err != nil {
		return
	}
	if os.MkdirAll(c.dir, 0o755) != nil {
		return
	}
	// Write-then-rename keeps concurrent runs from seeing torn entries.
	tmp := filepath.Join(c.dir, key+".tmp")
	if os.WriteFile(tmp, b, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(c.dir, key+".json"))
	c.prune()
}

// prune removes the least-recently-used entries beyond maxEntries
// (oldest mtime first, name as the deterministic tiebreaker).
func (c *Cache) prune() {
	if c.maxEntries <= 0 {
		return
	}
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name string
		mt   time.Time
	}
	var list []entry
	for _, e := range dirents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		list = append(list, entry{e.Name(), fi.ModTime()})
	}
	if len(list) <= c.maxEntries {
		return
	}
	sort.Slice(list, func(i, j int) bool {
		if !list[i].mt.Equal(list[j].mt) {
			return list[i].mt.Before(list[j].mt)
		}
		return list[i].name < list[j].name
	})
	for _, e := range list[:len(list)-c.maxEntries] {
		_ = os.Remove(filepath.Join(c.dir, e.name))
	}
}

// cacheKeys computes the closure-hash key per package, plus the single
// module-wide key the global analyzers' entry uses (keyed by every
// package's content: a global finding can change when any package
// changes, so nothing narrower is sound). A package whose sources cannot
// be re-read (synthetic test fixtures) or whose closure contains such a
// package gets "" — uncacheable, always analyzed fresh; any unhashable
// package also voids the global key.
func cacheKeys(pkgs []*Package, analyzers []*Analyzer) (map[*Package]string, string) {
	content := map[string]string{} // pkg path -> content hash ("" = unhashable)
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
		h := sha256.New()
		io.WriteString(h, pkg.Path+"\x00"+pkg.Dir+"\x00")
		good := true
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			b, err := os.ReadFile(name)
			if err != nil {
				good = false
				break
			}
			io.WriteString(h, filepath.Base(name)+"\x00")
			h.Write(b)
			io.WriteString(h, "\x00")
		}
		if good {
			content[pkg.Path] = hex.EncodeToString(h.Sum(nil))
		}
	}

	imports := map[string][]string{}
	rimports := map[string][]string{}
	for _, pkg := range pkgs {
		for _, dep := range moduleImports(pkg, pkg.modPath) {
			if _, ok := byPath[dep]; !ok {
				continue
			}
			imports[pkg.Path] = append(imports[pkg.Path], dep)
			rimports[dep] = append(rimports[dep], pkg.Path)
		}
	}
	reach := func(edges map[string][]string, start string) map[string]bool {
		seen := map[string]bool{start: true}
		stack := []string{start}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range edges[p] {
				if !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		return seen
	}

	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	var paths []string
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// The protocol-spec fingerprint makes the typestate specs part of the
	// key: editing a state, transition, or matcher in protocols.go
	// invalidates every warm entry, exactly like an analyzer code change.
	prelude := cacheVersion + "\x00" + strings.Join(names, ",") + "\x00" +
		strings.Join(paths, ",") + "\x00" + ifaceNamesHash(pkgs) + "\x00" +
		TypestateFingerprint() + "\x00"

	globalKey := ""
	{
		gh := sha256.New()
		io.WriteString(gh, prelude)
		io.WriteString(gh, "module-global\x00")
		ok := true
		for _, p := range paths {
			if content[p] == "" {
				ok = false
				break
			}
			io.WriteString(gh, p+"="+content[p]+"\x00")
		}
		if ok {
			globalKey = hex.EncodeToString(gh.Sum(nil))
		}
	}

	keys := make(map[*Package]string, len(pkgs))
	for _, pkg := range pkgs {
		closure := map[string]bool{}
		callers := reach(rimports, pkg.Path)
		sorted := make([]string, 0, len(callers))
		for r := range callers {
			sorted = append(sorted, r)
		}
		sort.Strings(sorted)
		for _, r := range sorted {
			for d := range reach(imports, r) {
				closure[d] = true
			}
		}
		member := make([]string, 0, len(closure))
		hashable := true
		for p := range closure {
			if content[p] == "" {
				hashable = false
				break
			}
			member = append(member, p)
		}
		if !hashable {
			keys[pkg] = ""
			continue
		}
		sort.Strings(member)
		h := sha256.New()
		io.WriteString(h, prelude)
		io.WriteString(h, pkg.Path+"\x00")
		for _, p := range member {
			io.WriteString(h, p+"="+content[p]+"\x00")
		}
		keys[pkg] = hex.EncodeToString(h.Sum(nil))
	}
	return keys, globalKey
}

// ifaceNamesHash hashes the module-wide interface-method-name set,
// computed syntactically so the warm path needs no type information.
func ifaceNamesHash(pkgs []*Package) string {
	set := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, mth := range it.Methods.List {
					for _, nm := range mth.Names {
						set[nm.Name] = true
					}
				}
				return true
			})
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.Sum256([]byte(strings.Join(names, ",")))
	return hex.EncodeToString(h[:])
}
