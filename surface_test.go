package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceUsers names the user of each exported identifier under internal/
// that no non-test code calls: a test oracle, a wire code book, a reference
// encoder a test checks the datapath against, or a test hook whose state no
// program-level API exposes. Keys are "pkg.Name" or "pkg.Type.Method".
var surfaceUsers = map[string]string{
	// Wire code books: every value the field can carry on the wire.
	"atm.PTUserCongestedEnd": "code book: the 3-bit PT field's eight values",
	"atm.PTOAMSegment":       "code book: the 3-bit PT field's eight values",
	"atm.PTReservedPT111":    "code book: the 3-bit PT field's eight values",
	"tcp.FlagFIN":            "code book: the flag bits, whose iota order fixes FlagACK's value",
	"tcp.FlagSYN":            "code book: the flag bits, whose iota order fixes FlagACK's value",
	"tcp.FlagRST":            "code book: the flag bits, whose iota order fixes FlagACK's value",
	"tcp.FlagPSH":            "code book: the flag bits, whose iota order fixes FlagACK's value",
	"tcp.FlagURG":            "code book: the flag bits, whose iota order fixes FlagACK's value",

	// Reference oracles the fast paths are checked against.
	"crc.HECBitwise":    "oracle: FuzzHECCheck and the HEC tests",
	"crc.CRC10Bitwise":  "oracle: FuzzCRC10 and the CRC-10 tests",
	"crc.CRC32Bitwise":  "oracle: FuzzCRC32 and the CRC-32 tests",
	"sim.NewHeapKernel": "oracle: the heap-versus-wheel goldens in sim, phy and core",

	// Reference encoders that tests check the datapath's in-place builds
	// against.
	"ip.Encapsulate":     "reference encoder: the ip, tcp and cellview tests and FuzzIPDecode",
	"ip.Header.Datagram": "reference encoder: the ip, tcp and cellview tests and FuzzIPDecode",

	// Test hooks: state or operations that no program-level API exposes.
	"nic.Interface.SendLoopback":    "test hook: core's TestPingLoopback, TestPerCellCountsDiscards and the fault scenario of the pool tests originate F5 loopbacks",
	"nic.Interface.OnLoopbackReply": "test hook: core's TestPingLoopback and the fault scenario of the pool tests count the replies",
	"report.Series.Y":               "test hook: the experiment shape tests read the curves",
	"report.Table.Rows":             "test hook: TestTelemetryShape",
	"trace.Sampler.Rows":            "test hook: TestE20SingleFlowShape reads the sampled cwnd series",
	"trace.Recorder.Enable":         "test hook: the disabled-tracing pins in trace_overhead_test.go",
}

// TestEveryExportedNameHasACaller keeps internal/'s exported surface
// audited: every exported func, method, const or var declared in a non-test
// file under internal/ must have its name used by some non-test identifier
// in the repository (bench/, cmd/ and examples/ included), or be named in
// surfaceUsers with its user. An allowlist entry that is no longer needed
// fails too. It matches names, not types, so a dead method that shares a
// common name with a live one (Stats, Len, Config) escapes it; the check is
// a tripwire for new dead surface, not a proof that none is left.
func TestEveryExportedNameHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	var decls []surfaceDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		decls = append(decls, surfaceUses(f, internal, used)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	needed := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		if _, ok := surfaceUsers[d.key]; ok {
			needed[d.key] = true
			continue
		}
		dead = append(dead, d.key+" ("+fset.Position(d.pos).String()+")")
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: exported, but no non-test code uses its name; delete it, or add it to surfaceUsers with its user", k)
	}
	for k := range surfaceUsers {
		if !needed[k] {
			t.Errorf("surfaceUsers[%q] is not needed: the name is used, or no longer declared", k)
		}
	}
}

// surfaceDecl is one exported func, method, const or var of internal/.
type surfaceDecl struct {
	key, name string
	pos       token.Pos
}

// surfaceUses adds to used every identifier of f that is not a declaration
// and, when f is under internal/, returns f's exported top-level funcs,
// methods, consts and vars.
func surfaceUses(f *ast.File, internal bool, used map[string]bool) []surfaceDecl {
	pkg := f.Name.Name
	declared := map[*ast.Ident]bool{f.Name: true}
	var decls []surfaceDecl
	add := func(id *ast.Ident, key string) {
		if internal && id.IsExported() {
			decls = append(decls, surfaceDecl{key, id.Name, id.Pos()})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name] = true
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			add(d.Name, key)
		case *ast.GenDecl:
			if d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, s := range d.Specs {
				for _, id := range s.(*ast.ValueSpec).Names {
					add(id, pkg+"."+id.Name)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			declared[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				for _, id := range fld.Names {
					declared[id] = true
				}
			}
		case *ast.Ident:
			if !declared[n] {
				used[n.Name] = true
			}
		}
		return true
	})
	return decls
}

// recvName returns the type name of a method receiver: T, *T or T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
