package engine

import (
	"bytes"
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

// determinismTraceGolden holds, per engine.Version, the SHA-256 of the
// Params.Trace output of the same runs as determinismGolden. A reordered
// delivery inside a cycle can change the trace without changing any Result
// field, so the trace is pinned separately under the same contract.
var determinismTraceGolden = map[string]map[string]string{
	"wimc-engine/10": {
		"00-16C16M (Wireless)/crossbar/shards=0": "7a8ee6081c498fd03e84141a78439600655bad0bb750d8e9e19e60b4c30022bb",
		"00-16C16M (Wireless)/crossbar/shards=2": "7a8ee6081c498fd03e84141a78439600655bad0bb750d8e9e19e60b4c30022bb",
		"01-4C4M (Wireless)/crossbar/shards=0":   "6b4fb30042c045d93b2204132d5a403cdcc453f8f70ca5bf0b36d5aa0e120fcc",
		"01-4C4M (Wireless)/crossbar/shards=2":   "6b4fb30042c045d93b2204132d5a403cdcc453f8f70ca5bf0b36d5aa0e120fcc",
		"02-reads/crossbar/shards=0":             "190acff74dfc9befadbb3ceda5a94f1412148f3218e4ec8199c3c3e91ff2dfe4",
		"02-reads/crossbar/shards=2":             "190acff74dfc9befadbb3ceda5a94f1412148f3218e4ec8199c3c3e91ff2dfe4",
		"03-4C4M (Wireless)/exclusive/shards=0":  "00d5dc80ab643d784fde03376fdacc30deec359027af8d8a59ac71a6c4e3f36b",
		"03-4C4M (Wireless)/exclusive/shards=2":  "00d5dc80ab643d784fde03376fdacc30deec359027af8d8a59ac71a6c4e3f36b",
		"04-partitioned/exclusive/shards=0":      "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"04-partitioned/exclusive/shards=2":      "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"05-spatial/exclusive/shards=0":          "bd7d3ad4110f46329c99e3b6bae212f58825de5e909dabdc6d3c54dc81344ac7",
		"05-spatial/exclusive/shards=2":          "bd7d3ad4110f46329c99e3b6bae212f58825de5e909dabdc6d3c54dc81344ac7",
		"06-token-multi/exclusive/shards=0":      "173ba0e10a869138729b557ef4e85149404976c0ca14f5ebe7c8f779427287ca",
		"06-token-multi/exclusive/shards=2":      "173ba0e10a869138729b557ef4e85149404976c0ca14f5ebe7c8f779427287ca",
		"07-skip-empty/exclusive/shards=0":       "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"07-skip-empty/exclusive/shards=2":       "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"08-drain-aware/exclusive/shards=0":      "54f3d380787618d1af201b2037e64f0d7e256fb51421b62b74bc15bfef53d6a3",
		"08-drain-aware/exclusive/shards=2":      "54f3d380787618d1af201b2037e64f0d7e256fb51421b62b74bc15bfef53d6a3",
		"09-weighted/exclusive/shards=0":         "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"09-weighted/exclusive/shards=2":         "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"10-token-skip-empty/exclusive/shards=0": "0b5d6b8bbe637a5b558eef6baa1e58834c04b1cd23ce5fa751e983af38d33c02",
		"10-token-skip-empty/exclusive/shards=2": "0b5d6b8bbe637a5b558eef6baa1e58834c04b1cd23ce5fa751e983af38d33c02",
		"11-adaptive/exclusive/shards=0":         "1c366b64aa16b1af2f7b909864eb0625c4f08ef2cb2947665b23b7e3782ebb19",
		"11-adaptive/exclusive/shards=2":         "1c366b64aa16b1af2f7b909864eb0625c4f08ef2cb2947665b23b7e3782ebb19",
		"12-4C4M (Wireless)/crossbar/shards=0":   "e5c57b443211d52943de788685462e340eb284bf89f02e55283cea54829d5064",
		"12-4C4M (Wireless)/crossbar/shards=2":   "e5c57b443211d52943de788685462e340eb284bf89f02e55283cea54829d5064",
		"13-per/exclusive/shards=0":              "af5e8ecb24a0d2f9a41438f7073d422114ae4aece8ef45fa2ca791644101c000",
		"13-per/exclusive/shards=2":              "af5e8ecb24a0d2f9a41438f7073d422114ae4aece8ef45fa2ca791644101c000",
		"14-outage/exclusive/shards=0":           "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"14-outage/exclusive/shards=2":           "cd3ce5029ae5b9fd9d246e9f443903058c03d05a00c063bf0b17dfb6c8aa28b7",
		"15-wifail/exclusive/shards=0":           "755e2395883d0332980b7d5d8f46fea16c966414632ebd8864c06a291a6028c5",
		"15-wifail/exclusive/shards=2":           "755e2395883d0332980b7d5d8f46fea16c966414632ebd8864c06a291a6028c5",
		"16-4C4M (Interposer)/crossbar/shards=0": "6ff164d59866fe43a644cd16c1270eb121b0fb668e0ea0f0b5823fc7e565ecf6",
		"16-4C4M (Interposer)/crossbar/shards=2": "6ff164d59866fe43a644cd16c1270eb121b0fb668e0ea0f0b5823fc7e565ecf6",
		"17-phased/crossbar/shards=0":            "6cec1fa36619b13785e62eab9ba02235ed32ba053313506b28561a028125623d",
		"17-phased/crossbar/shards=2":            "6cec1fa36619b13785e62eab9ba02235ed32ba053313506b28561a028125623d",
		"18-long-outage/exclusive/shards=0":      "2e19ff1da877034cd76b6727a7ad24cba8d8acb94744d08ab29d1292d1e392e1",
		"18-long-outage/exclusive/shards=2":      "2e19ff1da877034cd76b6727a7ad24cba8d8acb94744d08ab29d1292d1e392e1",
	},
}

// goldenKey names one golden run: the matrix index keeps configurations
// that share a preset name apart.
func goldenKey(i int, p Params, shards int) string {
	return fmt.Sprintf("%02d-%s/%s/shards=%d", i, p.Cfg.Name, p.Cfg.Channel, shards)
}

// TestDeterminismGolden recomputes every Result and packet-trace digest and
// compares them with the tables committed under the running Version. When
// the Version has no table the test fails and prints one to commit.
func TestDeterminismGolden(t *testing.T) {
	got := map[string]string{}
	gotTrace := map[string]string{}
	for i, p := range determinismParams() {
		for _, shards := range []int{0, 2} {
			sp := p
			sp.Cfg.EngineShards = shards
			var trace bytes.Buffer
			sp.Trace = &trace
			b, err := json.Marshal(mustRun(t, sp))
			if err != nil {
				t.Fatal(err)
			}
			k := goldenKey(i, p, shards)
			if trace.Len() == 0 {
				t.Fatalf("%s: empty packet trace", k)
			}
			got[k] = sha256Hex(b)
			gotTrace[k] = sha256Hex(trace.Bytes())
		}
	}
	checkGolden(t, "determinismGolden", "Result", determinismGolden, got)
	checkGolden(t, "determinismTraceGolden", "packet-trace", determinismTraceGolden, gotTrace)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares computed digests with the table committed under the
// running Version in golden (named table, describing what kind digests).
func checkGolden(t *testing.T, table, kind string, golden map[string]map[string]string, got map[string]string) {
	t.Helper()
	want, ok := golden[Version]
	if !ok {
		t.Errorf("no %s digests committed for %s; add this entry to %s:\n%s",
			kind, Version, table, goldenTable(got))
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: %s digest %s, committed golden %q (an output change must bump engine.Version and re-commit %s)",
				k, kind, got[k], want[k], table)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s: committed %d goldens for %s, the matrix runs %d", table, len(want), Version, len(got))
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
