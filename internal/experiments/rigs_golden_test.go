package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// Rig goldens: every two-station paper rig (E3, E4, E5, E8, E9, E11, E12,
// E13, E18 and the telemetry pass) at atmbench -quick scale, reduced to a
// SHA-256 over its full result. The digests were recorded when these rigs
// were still wired by hand from netsim stations and links; the rigs now run
// on core.NewNetwork, so a match here pins the builder to the hand wiring on
// every paper rig, result bit for result bit.

// rigDigest hashes the %+v rendering of a result: %v prints each float64
// in its shortest round-trip form, so any bit that moves changes the digest.
func rigDigest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// quick mirrors atmbench's -quick scaling of the default run times.
func quick(d sim.Duration) sim.Duration { return d / 4 }

var rigGoldens = []struct {
	name string
	run  func(t *testing.T) string
	want string
}{
	{"E3", func(t *testing.T) string {
		ec := DefaultE3()
		ec.RunTime = quick(ec.RunTime)
		pts, _, _ := E3(ec)
		return rigDigest(pts)
	}, "cf77cfff182fc97db0702d87e3d290769e65f5162a374e0d70d63d88704e820d"},
	{"E4", func(t *testing.T) string {
		ec := DefaultE4()
		ec.RunTime = quick(ec.RunTime)
		pts, _, _ := E4(ec)
		return rigDigest(pts)
	}, "8829470e3196b929a51618488c2dceae910a6f86ace929dde2f0da237eb6eb57"},
	{"E5", func(t *testing.T) string {
		rows, _ := E5()
		return rigDigest(rows)
	}, "2b4e3d3dbaba7f6deacad4c01511d6e378df699443b28c40c1035b47337cfe9e"},
	{"E8", func(t *testing.T) string {
		ec := DefaultE8()
		ec.RunTime = quick(ec.RunTime)
		pts, _ := E8(ec)
		return rigDigest(pts)
	}, "30517c4187e1ab51975cab4ead94bfdceef89165c2f149b41dad3061d8acea85"},
	{"E9", func(t *testing.T) string {
		pts, _ := E9(nil, quick(30*sim.Millisecond))
		return rigDigest(pts)
	}, "29d304762827f93839d73a765d97c4343f224dbbf97a7829cdff092a1a7717ff"},
	{"E11", func(t *testing.T) string {
		pts, _ := E11(nil, quick(20*sim.Millisecond))
		return rigDigest(pts)
	}, "3bb4463b36f96c563baca671ca4352c9f9b8d44d82388e003c1ae40b6189c73c"},
	{"E12", func(t *testing.T) string {
		pts, _ := E12(nil, 1<<18)
		return rigDigest(pts)
	}, "6a0a72e0ce2e7c7b10ad8cb067da1a7c0be3968c9878185e3b78d9be4d9a96e6"},
	{"E13", func(t *testing.T) string {
		pts, _ := E13(nil, 9180, 8, quick(60*sim.Millisecond))
		return rigDigest(pts)
	}, "44b504b0951f38c54d0233aeafad6a48fad6043d076aecf40841a52cf5e93fb9"},
	{"E18", func(t *testing.T) string {
		rows, _, rec := E18()
		return rigDigest(fmt.Sprintf("%+v events=%d", rows, len(rec.Events())))
	}, "d2241363d53985a3b86632aedf62f56cccfe986a53cde84f4975edc0b64bec11"},
	{"Telemetry", func(t *testing.T) string {
		ec := DefaultTelemetry()
		ec.RunTime = quick(ec.RunTime)
		snap, _ := Telemetry(ec)
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}, "5ccb0bd728b8a8871a5d2e3aa9184197308d562f4a4b03efc79154ffb329afc9"},
}

func TestRigGoldens(t *testing.T) {
	for _, g := range rigGoldens {
		t.Run(g.name, func(t *testing.T) {
			if got := g.run(t); got != g.want {
				t.Errorf("%s digest %s, pinned %s", g.name, got, g.want)
			}
		})
	}
}
