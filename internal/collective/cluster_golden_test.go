package collective

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"blink/internal/simgpu"
)

// TestGoldenClusterMatrix pins the Blink three-phase schedule's timing — the
// makespan, the partition count and the three phase durations — for every
// (cluster shape, NIC speed, op, size) cell. The table was generated while a
// cluster schedule was still 2·servers+1 separately simulated plans whose
// phase maxima were added; as one plan the phases share one clock, so event
// times are absolute instead of phase-relative and the last bits may move:
// cells compare within 1e-12 relative, not bit for bit. It must never change
// as a side effect of a refactor.
func TestGoldenClusterMatrix(t *testing.T) {
	shapes := [][]int{{3, 5}, {5, 3}, {1, 3}, {4, 4, 4}}
	var got []string
	worst := 0.0
	near := func(cell, what string, got float64, wantBits uint64) {
		want := math.Float64frombits(wantBits)
		dev := math.Abs(got - want)
		if want != 0 {
			dev /= math.Abs(want)
		}
		worst = math.Max(worst, dev)
		if dev > 1e-12 {
			t.Errorf("%s%s = %v (%x), golden %v (%x): off by %.3g relative", cell, what, got, math.Float64bits(got), want, wantBits, dev)
		}
	}
	for _, pieces := range shapes {
		name := strings.Trim(strings.ReplaceAll(fmt.Sprint(pieces), " ", "+"), "[]")
		total := 0
		for _, p := range pieces {
			total += p
		}
		for _, gbps := range []float64{40, 100, 400} {
			eng, err := NewClusterEngine(testCluster(t, pieces, gbps), simgpu.Config{})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, gbps, err)
			}
			for _, op := range []Op{AllReduce, Broadcast, AllToAll} {
				root := 0
				if op == Broadcast {
					root = total - 1
				}
				for _, bytes := range []int64{1 << 20, 25 << 20, 100 << 20} {
					cell := fmt.Sprintf("%s %v %v %d: ", name, gbps, op, bytes)
					r, err := eng.Run(Blink, op, root, bytes, Options{})
					if err != nil {
						t.Fatalf("%s%v", cell, err)
					}
					got = append(got, cell+fmt.Sprintf("%d %x %x %x %x", r.Partitions, math.Float64bits(r.Seconds),
						math.Float64bits(r.Phase1), math.Float64bits(r.Phase2), math.Float64bits(r.Phase3)))
					if i := len(got) - 1; i < len(goldenCluster) {
						var wantCell string
						var parts int
						var sec, p1, p2, p3 uint64
						wantCell, rest, _ := strings.Cut(goldenCluster[i], ": ")
						if _, err := fmt.Sscanf(rest, "%d %x %x %x %x", &parts, &sec, &p1, &p2, &p3); err != nil || wantCell+": " != cell {
							t.Fatalf("golden cell %d is %q, want %q… (%v)", i, goldenCluster[i], cell, err)
						}
						if r.Partitions != parts {
							t.Errorf("%spartitions = %d, golden %d", cell, r.Partitions, parts)
						}
						near(cell, "Seconds", r.Seconds, sec)
						near(cell, "Phase1", r.Phase1, p1)
						near(cell, "Phase2", r.Phase2, p2)
						near(cell, "Phase3", r.Phase3, p3)
						near(cell, "Phase1+Phase2+Phase3", r.Phase1+r.Phase2+r.Phase3, math.Float64bits(r.Seconds))
					}
				}
			}
		}
	}
	if len(got) != len(goldenCluster) {
		t.Errorf("matrix has %d cells, golden table %d", len(got), len(goldenCluster))
	}
	t.Logf("%d cells, maximum relative deviation from the golden table %.3g", len(got), worst)
	if t.Failed() {
		t.Logf("full matrix as a literal:\n\t%s", "\""+strings.Join(got, "\",\n\t\"")+"\",")
	}
}

// goldenCluster is the literal cluster matrix, one cell per line in iteration
// order: "shape nic-gbps op bytes: partitions seconds-bits phase1-bits
// phase2-bits phase3-bits".
var goldenCluster = []string{
	"3+5 40 AllReduce 1048576: 3 3f3bf7a6e1fcd562 3f18e1522ebc4d5c 3f31a1e87fb70e9c 3f1075a75a5acdbb",
	"3+5 40 AllReduce 26214400: 3 3f7de048d80efcbd 3f49d0f2a4f50ee8 3f7828c2b8d14010 3f43eb3e54f8d680",
	"3+5 40 AllReduce 104857600: 3 3f9c443dc92c6d76 3f656fc4768ca535 3f9724a955d8bdea 3f638cdf2410d727",
	"3+5 40 Broadcast 1048576: 1 3f46d4c2408f8707 0 3f432f93e1f58eab 3f1d2972f4cfc2e3",
	"3+5 40 Broadcast 26214400: 1 3f888a67f31b89f9 0 3f86e6669942eeb3 3f4a40159d89b465",
	"3+5 40 Broadcast 104857600: 1 3fa836ec941b7bce 0 3fa6d5e2bd80bb8e 3f66109d69ac0408",
	"3+5 40 AllToAll 1048576: 8 3f532d455cc156a0 3f130aab8eb20dc1 3f51fc9aa3d635c4 0",
	"3+5 40 AllToAll 26214400: 8 3f962257ff3d261c 3f454af9f1ccca17 3f9578002faebfcb 0",
	"3+5 40 AllToAll 104857600: 8 3fb60615415b7f30 3f63ad5e00b4b48e 3fb568aa5155d98c 0",
	"3+5 100 AllReduce 1048576: 3 3f32eb3ca2e351cf 3f18e1522ebc4d5c 3f212afc813b1612 3f1075a75a5acdbb",
	"3+5 100 AllReduce 26214400: 3 3f6eee447312b689 3f49d0f2a4f50ee8 3f637f3834973d2f 3f43eb3e54f8d680",
	"3+5 100 AllReduce 104857600: 3 3f8cdd50248b7bf3 3f656fc4768ca535 3f829e273de41cdc 3f638cdf2410d727",
	"3+5 100 Broadcast 1048576: 1 3f3c4d2d05029639 0 3f3502d047cea580 3f1d2972f4cfc2e3",
	"3+5 100 Broadcast 26214400: 1 3f75f487344a98ba 0 3f72ac848099622d 3f4a40159d89b465",
	"3+5 100 Broadcast 104857600: 1 3f954d90764a7c7d 0 3f928b7cc914fbfc 3f66109d69ac0408",
	"3+5 100 AllToAll 1048576: 8 3f4613f8b527fce1 3f130aab8eb20dc1 3f43b2a34351bb29 0",
	"3+5 100 AllToAll 26214400: 8 3f82d66bd7ac98ab 3f454af9f1ccca17 3f8181bc388fcc0a 0",
	"3+5 100 AllToAll 104857600: 8 3fa29de65be94ab7 3f63ad5e00b4b48e 3fa163107bddff6e 0",
	"3+5 400 AllReduce 1048576: 3 3f2e6e7ffdd6f642 3f18e1522ebc4d5c 3f1386067296d16d 3f1075a75a5acdbb",
	"3+5 400 AllReduce 26214400: 3 3f60851dd48d1512 3f49d0f2a4f50ee8 3f44584658466ee2 3f43eb3e54f8d680",
	"3+5 400 AllReduce 104857600: 3 3f7e0f74db4998f6 3f656fc4768ca535 3f6322461bf5b591 3f638cdf2410d727",
	"3+5 400 Broadcast 1048576: 1 3f339f0146f45a50 0 3f28a9491380d32e 3f1d2972f4cfc2e3",
	"3+5 400 Broadcast 26214400: 1 3f60c8c5b6a8b637 0 3f5471809e8c923b 3f4a40159d89b465",
	"3+5 400 Broadcast 104857600: 1 3f7ef5b07550fb97 0 3f73ed61c07af993 3f66109d69ac0408",
	"3+5 400 AllToAll 1048576: 8 3f3be15f65f54968 3f130aab8eb20dc1 3f371eb48248c5f8 0",
	"3+5 400 AllToAll 26214400: 8 3f687d271116fba0 3f454af9f1ccca17 3f632a6894a3c91a 0",
	"3+5 400 AllToAll 104857600: 8 3f879b112209c3f2 3f63ad5e00b4b48e 3f82afb9a1dc96ce 0",
	"5+3 40 AllReduce 1048576: 3 3f3bf7a6e1fcd562 3f18e1522ebc4d5c 3f31a1e87fb70e9c 3f1075a75a5acdbb",
	"5+3 40 AllReduce 26214400: 3 3f7de048d80efcbd 3f49d0f2a4f50ee8 3f7828c2b8d14010 3f43eb3e54f8d680",
	"5+3 40 AllReduce 104857600: 3 3f9c443dc92c6d76 3f656fc4768ca535 3f9724a955d8bdea 3f638cdf2410d727",
	"5+3 40 Broadcast 1048576: 1 3f4689c9c6c23acf 0 3f432f93e1f58eab 3f1ad1af2665611e",
	"5+3 40 Broadcast 26214400: 1 3f8873a2e5b2c239 0 3f86e6669942eeb3 3f48d3c4c6fd385f",
	"5+3 40 Broadcast 104857600: 1 3fa82fe9beffc027 0 3fa6d5e2bd80bb8e 3f65a07017f0498a",
	"5+3 40 AllToAll 1048576: 8 3f532d455cc156a0 3f130aab8eb20dc1 3f51fc9aa3d635c4 0",
	"5+3 40 AllToAll 26214400: 8 3f962257ff3d261c 3f454af9f1ccca17 3f9578002faebfcb 0",
	"5+3 40 AllToAll 104857600: 8 3fb60615415b7f30 3f63ad5e00b4b48e 3fb568aa5155d98c 0",
	"5+3 100 AllReduce 1048576: 3 3f32eb3ca2e351cf 3f18e1522ebc4d5c 3f212afc813b1612 3f1075a75a5acdbb",
	"5+3 100 AllReduce 26214400: 3 3f6eee447312b689 3f49d0f2a4f50ee8 3f637f3834973d2f 3f43eb3e54f8d680",
	"5+3 100 AllReduce 104857600: 3 3f8cdd50248b7bf3 3f656fc4768ca535 3f829e273de41cdc 3f638cdf2410d727",
	"5+3 100 Broadcast 1048576: 1 3f3bb73c1167fdc8 0 3f3502d047cea580 3f1ad1af2665611e",
	"5+3 100 Broadcast 26214400: 1 3f75c6fd19790939 0 3f72ac848099622d 3f48d3c4c6fd385f",
	"5+3 100 Broadcast 104857600: 1 3f953f8acc13052d 0 3f928b7cc914fbfc 3f65a07017f0498a",
	"5+3 100 AllToAll 1048576: 8 3f4613f8b527fce1 3f130aab8eb20dc1 3f43b2a34351bb29 0",
	"5+3 100 AllToAll 26214400: 8 3f82d66bd7ac98ab 3f454af9f1ccca17 3f8181bc388fcc0a 0",
	"5+3 100 AllToAll 104857600: 8 3fa29de65be94ab7 3f63ad5e00b4b48e 3fa163107bddff6e 0",
	"5+3 400 AllReduce 1048576: 3 3f2e6e7ffdd6f642 3f18e1522ebc4d5c 3f1386067296d16d 3f1075a75a5acdbb",
	"5+3 400 AllReduce 26214400: 3 3f60851dd48d1512 3f49d0f2a4f50ee8 3f44584658466ee2 3f43eb3e54f8d680",
	"5+3 400 AllReduce 104857600: 3 3f7e0f74db4998f6 3f656fc4768ca535 3f6322461bf5b591 3f638cdf2410d727",
	"5+3 400 Broadcast 1048576: 1 3f3309105359c1de 0 3f28a9491380d32e 3f1ad1af2665611e",
	"5+3 400 Broadcast 26214400: 1 3f606db181059735 0 3f5471809e8c923b 3f48d3c4c6fd385f",
	"5+3 400 Broadcast 104857600: 1 3f7ebd99cc731e58 0 3f73ed61c07af993 3f65a07017f0498a",
	"5+3 400 AllToAll 1048576: 8 3f3be15f65f54968 3f130aab8eb20dc1 3f371eb48248c5f8 0",
	"5+3 400 AllToAll 26214400: 8 3f687d271116fba0 3f454af9f1ccca17 3f632a6894a3c91a 0",
	"5+3 400 AllToAll 104857600: 8 3f879b112209c3f2 3f63ad5e00b4b48e 3f82afb9a1dc96ce 0",
	"1+3 40 AllReduce 1048576: 1 3f496dc64c698aa7 3f19d81ac539f078 3f432f93e1f58eab 3f1819788e65ef69",
	"1+3 40 AllReduce 26214400: 1 3f89b96494f5018d 3f46f5d280a2430b 3f86e6669942eeb3 3f463a0d3a7eea8e",
	"1+3 40 AllReduce 104857600: 1 3fa97365c0ac6326 3f650860361afa59 3fa6d5e2bd80bb8e 3f64cfcffc9f7f1d",
	"1+3 40 Broadcast 1048576: 1 3f463ed14cf4ee96 0 3f432f93e1f58eab 3f1879eb57faff58",
	"1+3 40 Broadcast 26214400: 1 3f885cddd849fa79 0 3f86e6669942eeb3 3f476773f070bc59",
	"1+3 40 Broadcast 104857600: 1 3fa828e6e9e4047f 0 3fa6d5e2bd80bb8e 3f653042c6348f0c",
	"1+3 40 AllToAll 1048576: 4 3f40236642305a83 3f0bfb758b82f831 3f3cc75dd2f055ff 0",
	"1+3 40 AllToAll 26214400: 4 3f821e94838e3aee 3f3e38f21380fcde 3f812cccf2f23307 0",
	"1+3 40 AllToAll 104857600: 4 3fa20a86af902170 3f5d30b4575dcb7f 3fa121010cd53314 0",
	"1+3 100 AllReduce 1048576: 1 3f40bf9a8e5b4ebc 3f19d81ac539f078 3f3502d047cea580 3f1819788e65ef69",
	"1+3 100 AllReduce 26214400: 1 3f78528077fd87e0 3f46f5d280a2430b 3f72ac848099622d 3f463a0d3a7eea8e",
	"1+3 100 AllReduce 104857600: 1 3f97c682cf6c4b2b 3f650860361afa59 3f928b7cc914fbfc 3f64cfcffc9f7f1d",
	"1+3 100 Broadcast 1048576: 1 3f3b214b1dcd6556 0 3f3502d047cea580 3f1879eb57faff58",
	"1+3 100 Broadcast 26214400: 1 3f759972fea779b8 0 3f72ac848099622d 3f476773f070bc59",
	"1+3 100 Broadcast 104857600: 1 3f95318521db8dde 0 3f928b7cc914fbfc 3f653042c6348f0c",
	"1+3 100 AllToAll 1048576: 4 3f33418ae74b5b2a 3f0bfb758b82f831 3f2f84386bb5f848 0",
	"1+3 100 AllToAll 26214400: 4 3f6fc9e5035632df 3f3e38f21380fcde 3f6c02c6c0e61343 0",
	"1+3 100 AllToAll 104857600: 4 3f8f79adb35dcd03 3f5d30b4575dcb7f 3f8bd39728721393 0",
	"1+3 400 AllReduce 1048576: 1 3f38d1095ea8618f 3f19d81ac539f078 3f28a9491380d32e 3f1819788e65ef69",
	"1+3 400 AllReduce 26214400: 1 3f6584b83e0e9484 3f46f5d280a2430b 3f5471809e8c923b 3f463a0d3a7eea8e",
	"1+3 400 AllReduce 104857600: 1 3f846cbcecec1b27 3f650860361afa59 3f73ed61c07af993 3f64cfcffc9f7f1d",
	"1+3 400 Broadcast 1048576: 1 3f32731f5fbf296d 0 3f28a9491380d32e 3f1879eb57faff58",
	"1+3 400 Broadcast 26214400: 1 3f60129d4b627834 0 3f5471809e8c923b 3f476773f070bc59",
	"1+3 400 Broadcast 104857600: 1 3f7e858323954119 0 3f73ed61c07af993 3f653042c6348f0c",
	"1+3 400 AllToAll 1048576: 4 3f297dd431815c6e 3f0bfb758b82f831 3f227ef6cea09e62 0",
	"1+3 400 AllToAll 26214400: 4 3f56e35cfbc9ace2 3f3e38f21380fcde 3f4eaa40edd2db56 0",
	"1+3 400 AllToAll 104857600: 4 3f7642ee5bd8e137 3f5d30b4575dcb7f 3f6ded828c02dcae 0",
	"4+4+4 40 AllReduce 1048576: 4 3f43630cac6ca200 3f087e139a796fe4 3f40bcec86542f7a 3f01e3eec70db882",
	"4+4+4 40 AllReduce 26214400: 4 3f88d6ec27e2af2c 3f393e2a67ad507a 3f876cd78e61f56d 3f340468c869e764",
	"4+4+4 40 AllReduce 104857600: 4 3fa7f383f94d4d62 3f5139ccd9730c72 3fa6ea33de310df0 3f4fe06d1429c37f",
	"4+4+4 40 Broadcast 1048576: 1 3f45ba95e019a5f8 0 3f43afe60d942a3c 3f10557e942bddde",
	"4+4+4 40 Broadcast 26214400: 1 3f8882d59026352d 0 3f879c0726d5f51b 3f3cd9cd2a080236",
	"4+4+4 40 Broadcast 104857600: 1 3fa7c77b4bc3c307 0 3fa70ff38b5aa73f 3f56f0f80d237903",
	"4+4+4 40 AllToAll 1048576: 12 3f4e7410bff04335 3f03c7b78ce04266 3f4d379547223f0f 0",
	"4+4+4 40 AllToAll 26214400: 12 3f92fe4f07dab62f 3f2c758550d87a09 3f92c563fd39053b 0",
	"4+4+4 40 AllToAll 104857600: 12 3fb28addb541c908 3f475bd81f8d7b5e 3fb25c260502ae11 0",
	"4+4+4 100 AllReduce 1048576: 4 3f34dedf20dbe870 3f087e139a796fe4 3f2f253da95606c8 3f01e3eec70db882",
	"4+4+4 100 AllReduce 26214400: 4 3f75b48d58497f49 3f393e2a67ad507a 3f72e06425480bcb 3f340468c869e764",
	"4+4+4 100 AllReduce 104857600: 4 3f94814de2bdadaf 3f5139ccd9730c72 3f926eadac852ecc 3f4fe06d1429c37f",
	"4+4+4 100 Broadcast 1048576: 1 3f398df18835f05a 0 3f357891e32af8e3 3f10557e942bddde",
	"4+4+4 100 Broadcast 26214400: 1 3f750c6028d08b45 0 3f733ec356300b22 3f3cd9cd2a080236",
	"4+4+4 100 Broadcast 104857600: 1 3f94293c87aa990f 0 3f92ba2d06d8617f 3f56f0f80d237903",
	"4+4+4 100 AllToAll 1048576: 12 3f402ac9aa087dfc 3f03c7b78ce04266 3f3ddc9c6274f3ac 0",
	"4+4+4 100 AllToAll 26214400: 12 3f7f541b42479847 3f2c758550d87a09 3f7e706f17c0d477 0",
	"4+4+4 100 AllToAll 104857600: 12 3f9e6805536bddee 3f475bd81f8d7b5e 3f9dad26926f7213 0",
	"4+4+4 400 AllReduce 1048576: 4 3f27d68409ba7548 3f087e139a796fe4 3f1a7c06e2b1565e 3f01e3eec70db882",
	"4+4+4 400 AllReduce 26214400: 4 3f5edf9f722e3ef1 3f393e2a67ad507a 3f538efaa62870fa 3f340468c869e764",
	"4+4+4 400 AllReduce 104857600: 4 3f7b39c36b3cdcba 3f5139ccd9730c72 3f72ef42925ae12e 3f4fe06d1429c37f",
	"4+4+4 400 Broadcast 1048576: 1 3f309a546c374292 0 3f2909e98e589636 3f10557e942bddde",
	"4+4+4 400 Broadcast 26214400: 1 3f5c3eeab44a6ee8 0 3f55087769c86e5b 3f3cd9cd2a080236",
	"4+4+4 400 Broadcast 104857600: 1 3f79d97dfef08a22 0 3f741d3ffba7abe1 3f56f0f80d237903",
	"4+4+4 400 AllToAll 1048576: 12 3f33af18c0ec4739 3f03c7b78ce04266 3f313621cf503eec 0",
	"4+4+4 400 AllToAll 26214400: 12 3f620315a76bf00f 3f2c758550d87a09 3f603bbd525e686e 0",
	"4+4+4 400 AllToAll 104857600: 12 3f810c99253c75e2 3f475bd81f8d7b5e 3f7f2db746873c59 0",
}
