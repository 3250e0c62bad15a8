package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// determinismGolden holds, per engine.Version, the SHA-256 of the Result
// JSON of every determinismParams() configuration, run serially and at
// engine_shards 2. The matrix tests compare scheduling paths against each
// other, so a change to code every path shares (the switch allocators, the
// MAC, the energy meter) passes them while moving every Result equally;
// these digests pin the simulated output itself. They are regenerated only
// together with a Version bump, the same contract perfbench/golden.json and
// the spec golden hashes follow.
var determinismGolden = map[string]map[string]string{
	"wimc-engine/10": {
		"00-16C16M (Wireless)/crossbar/shards=0": "c643c2bdcb46eb43e7cff408c0a97c74ee41b0d1463208242d4485bdd82d70ca",
		"00-16C16M (Wireless)/crossbar/shards=2": "c643c2bdcb46eb43e7cff408c0a97c74ee41b0d1463208242d4485bdd82d70ca",
		"01-4C4M (Wireless)/crossbar/shards=0":   "0370737ca6074bb8f6aeb46952865a6a88754a11988d21907ca18e9e613558e9",
		"01-4C4M (Wireless)/crossbar/shards=2":   "0370737ca6074bb8f6aeb46952865a6a88754a11988d21907ca18e9e613558e9",
		"02-reads/crossbar/shards=0":             "7c5cbad5dac2860d2cca67b4aafb7a38ea7c0ff1786d26eaa1b3c3f0917d87f3",
		"02-reads/crossbar/shards=2":             "7c5cbad5dac2860d2cca67b4aafb7a38ea7c0ff1786d26eaa1b3c3f0917d87f3",
		"03-4C4M (Wireless)/exclusive/shards=0":  "881dc147bdda3107127fb38d00ef5e1640c574ce0f043987d19b7cc8880c2ed4",
		"03-4C4M (Wireless)/exclusive/shards=2":  "881dc147bdda3107127fb38d00ef5e1640c574ce0f043987d19b7cc8880c2ed4",
		"04-partitioned/exclusive/shards=0":      "87dd6465a59e2f64f64b8bfa65e4b6d511ab9c171b3212b1bb18ea61d6dd2363",
		"04-partitioned/exclusive/shards=2":      "87dd6465a59e2f64f64b8bfa65e4b6d511ab9c171b3212b1bb18ea61d6dd2363",
		"05-spatial/exclusive/shards=0":          "93872add056d36113f7a35249cb7f345d1b6079d7e4cb24b65666708bf85319c",
		"05-spatial/exclusive/shards=2":          "93872add056d36113f7a35249cb7f345d1b6079d7e4cb24b65666708bf85319c",
		"06-token-multi/exclusive/shards=0":      "a249647f753ac29722d28281e0b778150d0e088c9caa595886489857a5fbdf9f",
		"06-token-multi/exclusive/shards=2":      "a249647f753ac29722d28281e0b778150d0e088c9caa595886489857a5fbdf9f",
		"07-skip-empty/exclusive/shards=0":       "67efbba9df4e2a7d02d6ef58324de0dc4d253a68ab536d6c68785ce8a052ca58",
		"07-skip-empty/exclusive/shards=2":       "67efbba9df4e2a7d02d6ef58324de0dc4d253a68ab536d6c68785ce8a052ca58",
		"08-drain-aware/exclusive/shards=0":      "459c287f0bf04d7e8a610985cab255f299e1809064c40f198a24e8b1fbbd0f56",
		"08-drain-aware/exclusive/shards=2":      "459c287f0bf04d7e8a610985cab255f299e1809064c40f198a24e8b1fbbd0f56",
		"09-weighted/exclusive/shards=0":         "c9180d1c31fe26b8773849defa881958ad57ccf0a9bc9336daa4ff9794cafd0b",
		"09-weighted/exclusive/shards=2":         "c9180d1c31fe26b8773849defa881958ad57ccf0a9bc9336daa4ff9794cafd0b",
		"10-token-skip-empty/exclusive/shards=0": "3b28437f0b7ccdb1c9ae948e8d3ca72107ede4ca39c9c5d4b151947251d4191b",
		"10-token-skip-empty/exclusive/shards=2": "3b28437f0b7ccdb1c9ae948e8d3ca72107ede4ca39c9c5d4b151947251d4191b",
		"11-adaptive/exclusive/shards=0":         "2f56b0b578817bc7057160daaef5cda55551f679b325d057d8d4aaa9774c2230",
		"11-adaptive/exclusive/shards=2":         "2f56b0b578817bc7057160daaef5cda55551f679b325d057d8d4aaa9774c2230",
		"12-4C4M (Wireless)/crossbar/shards=0":   "1f3d95c72edb6f2894926a9591c492ba1f2aab9312175af5c75c7c37806dc716",
		"12-4C4M (Wireless)/crossbar/shards=2":   "1f3d95c72edb6f2894926a9591c492ba1f2aab9312175af5c75c7c37806dc716",
		"13-per/exclusive/shards=0":              "201a7fdcf9275de311f1e1dca8a6b77293b5064bbc75bdd9d0375ad69a98b689",
		"13-per/exclusive/shards=2":              "201a7fdcf9275de311f1e1dca8a6b77293b5064bbc75bdd9d0375ad69a98b689",
		"14-outage/exclusive/shards=0":           "e61d1bb7f5ddcaafad36616aa2be2849fbeece9630b7608dad2196ed3a1db9d6",
		"14-outage/exclusive/shards=2":           "e61d1bb7f5ddcaafad36616aa2be2849fbeece9630b7608dad2196ed3a1db9d6",
		"15-wifail/exclusive/shards=0":           "8189c376410edb63ff40bc3c0b9ff53a46bec85d16f28af50827fce82396d240",
		"15-wifail/exclusive/shards=2":           "8189c376410edb63ff40bc3c0b9ff53a46bec85d16f28af50827fce82396d240",
		"16-4C4M (Interposer)/crossbar/shards=0": "918138f9e1edb873f9d32204632a5814629fc4b16f89785e11a1a49657d70402",
		"16-4C4M (Interposer)/crossbar/shards=2": "918138f9e1edb873f9d32204632a5814629fc4b16f89785e11a1a49657d70402",
		"17-phased/crossbar/shards=0":            "36f9df1c1b73df6b044ec71071d7c52ce93f64a93026bc461553eebb6c1aec51",
		"17-phased/crossbar/shards=2":            "36f9df1c1b73df6b044ec71071d7c52ce93f64a93026bc461553eebb6c1aec51",
		"18-long-outage/exclusive/shards=0":      "96a3ea75a5a589d304a54ad54c12078856ebe19aee9a5a0c2dc510bdfeeb48e2",
		"18-long-outage/exclusive/shards=2":      "96a3ea75a5a589d304a54ad54c12078856ebe19aee9a5a0c2dc510bdfeeb48e2",
	},
}

// goldenKey names one golden run: the matrix index keeps configurations
// that share a preset name apart.
func goldenKey(i int, p Params, shards int) string {
	return fmt.Sprintf("%02d-%s/%s/shards=%d", i, p.Cfg.Name, p.Cfg.Channel, shards)
}

// TestDeterminismGolden recomputes every digest and compares it with the
// table committed under the running Version. When the Version has no table
// the test fails and prints one to commit.
func TestDeterminismGolden(t *testing.T) {
	got := map[string]string{}
	for i, p := range determinismParams() {
		for _, shards := range []int{0, 2} {
			sp := p
			sp.Cfg.EngineShards = shards
			b, err := json.Marshal(mustRun(t, sp))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[goldenKey(i, p, shards)] = hex.EncodeToString(sum[:])
		}
	}
	want, ok := determinismGolden[Version]
	if !ok {
		t.Fatalf("no determinism goldens committed for %s; add this entry to determinismGolden:\n%s",
			Version, goldenTable(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: Result digest %s, committed golden %q (an output change must bump engine.Version and re-commit the table)",
				k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("committed %d goldens for %s, the matrix runs %d", len(want), Version, len(got))
	}
}

// goldenTable renders digests as a determinismGolden entry.
func goldenTable(d map[string]string) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "\t%q: {\n", Version)
	for _, k := range keys {
		fmt.Fprintf(&b, "\t\t%q: %q,\n", k, d[k])
	}
	b.WriteString("\t},\n")
	return b.String()
}
