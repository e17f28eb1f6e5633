package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Experiment goldens: every experiment E1–E21 and the telemetry pass, at
// atmbench -quick scale, reduced to a SHA-256 over its full result. The
// simulation is deterministic, so these digests are exact: they pin every
// goodput, Jain index, CDV and convergence time the experiments report.
// The paper-rig digests (E3, E4, E5, E8, E9, E11, E12, E13 and E18) were
// recorded when those rigs were still wired by hand from netsim stations and
// links; the rigs now run on core.NewNetwork, so a match there pins the
// builder to the hand wiring, result bit for result bit. The telemetry
// pass's digest was recorded on the builder.

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
	{"E1", func(t *testing.T) string {
		rows, _ := E1(engine.DefaultConfig())
		return rigDigest(rows)
	}, "18c7f432c197e356448f5920cc42080c2e000a218e8c64042b2fc1f7383e034c"},
	{"E2", func(t *testing.T) string {
		rows, _ := E2(engine.DefaultConfig())
		return rigDigest(rows)
	}, "4189b467be02d9e1ef0de2914a68ba3cbec9f672b56aaeb370d7fc9f78ebaaf8"},
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
	}, "583ae44b7725cafdd0a9eb6477eb3d191f88021881342fd6bc912ece3a84c6ea"},
	{"E6", func(t *testing.T) string {
		pts, _ := E6(nil)
		return rigDigest(pts)
	}, "2285e8996678cff672e95056cc0202d3cdf0cccf8f808effd77fe5d19b805cf3"},
	{"E7", func(t *testing.T) string {
		rows, _ := E7()
		return rigDigest(rows)
	}, "50984050d533e34cbb4242e9bde7cdce0270a4e03b781cd2fa22911595cf8763"},
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
	{"E10", func(t *testing.T) string {
		pts, _ := E10(nil)
		return rigDigest(pts)
	}, "b96f4e5325d822aa16df1a9bee067ddda1f7ca09fe1beb044ef7f60f842fec7b"},
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
	{"E14", func(t *testing.T) string {
		res, _ := E14(quick(40 * sim.Millisecond))
		return rigDigest(res)
	}, "d382fd7fe6df3054e8431153a4447daf8f8e028f8ba7b164d48d2a925fdc3143"},
	{"E15", func(t *testing.T) string {
		pts, _ := E15(nil, quick(40*sim.Millisecond))
		return rigDigest(pts)
	}, "7924a433bda693809063eecd10e228fc92bb72c4d82fc97ba5a5f0d658fb692b"},
	{"E16", func(t *testing.T) string {
		pts, _ := E16(quick(30 * sim.Millisecond))
		return rigDigest(pts)
	}, "961dbd1ec772ee6a5842cd857b265f46bfd90814c8e2d40571ffc7ebc2152bba"},
	{"E17", func(t *testing.T) string {
		res, _ := E17(quick(20 * sim.Millisecond))
		return rigDigest(res)
	}, "1b512afdebe675b9cd74961de29a315b1246c529a9a93e25fc33d61bf885136e"},
	// E18's rows still match the hand-wired rig's. Its event count is the
	// STS-12c run's 577 stage spans, one event each, and its delivery point.
	{"E18", func(t *testing.T) string {
		rows, _, rec := E18()
		return rigDigest(fmt.Sprintf("%+v events=%d", rows, len(rec.Events())))
	}, "d0e71c10370d8ef2d574ff52f79424ecd4a3fdd1098066d552b1eded2b621924"},
	{"E19", func(t *testing.T) string {
		pts, _ := E19(nil, quick(2*sim.Second))
		return rigDigest(pts)
	}, "bcacac87e844de9b3bc74883dfc9f4c4afe7c5035ccf7f1c0cfd117e22418516"},
	{"E20", func(t *testing.T) string {
		res, _ := E20(2, quick(10*sim.Second))
		// The sampler is a pointer; hash its cwnd series, not its address.
		var cwnd bytes.Buffer
		if err := res.Sampler.WriteCSV(&cwnd); err != nil {
			t.Fatal(err)
		}
		res.Sampler = nil
		return rigDigest(fmt.Sprintf("%+v cwnd=%s", res, cwnd.String()))
	}, "f95e00dad558605c7d5bd7b629e828e16901cb333e1dae7a192270af4d8446b0"},
	{"E21", func(t *testing.T) string {
		pts, _ := E21(quick(30 * sim.Millisecond))
		return rigDigest(pts)
	}, "f584b17cfc64220f26622a84a1aab8bef1f6b73c151ea05c7f33fab85a63855f"},
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
	}, "10cac15683746d0dcf1690bc5052e2d6fdbab48bb65a7db9734e93b1d6de862c"},
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
