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
// (cluster shape, NIC speed, op, size) cell, within 1e-12 relative. It must
// never change as a side effect of a refactor. Every cell must also respect
// the NIC: its Seconds is at least the most bytes that must cross one
// server's NIC over that NIC's rate — one payload into every server
// (AllReduce) or every non-root one (Broadcast), the off-server shards
// (AllToAll). On two servers, no cell may lose to the flat ring.
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
			st := eng.st.Load() // its last links are the NIC fabric's: edges, then reduce links
			nic := st.wide.Links[len(st.wide.Links)-st.wide.Graph.N-1].BW * 1e9
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
					crossing := float64(bytes)
					if op == AllToAll {
						crossing = 0
						for _, p := range pieces {
							crossing = math.Max(crossing, float64(p*(total-p))*float64(bytes/4/int64(total)*4))
						}
					}
					want := "3-phase"
					if op == AllToAll {
						want += "+alltoall"
					}
					if r.Strategy != want {
						t.Errorf("%sstrategy %q, want %q", cell, r.Strategy, want)
					}
					if r.Seconds < crossing/nic {
						t.Errorf("%sSeconds = %v beats the NIC bound %v", cell, r.Seconds, crossing/nic)
					}
					if len(pieces) == 2 && op != AllToAll {
						flat, err := eng.Run(NCCL, op, root, bytes, Options{})
						if err != nil || flat.Strategy != "flat-ring" || flat.Seconds < r.Seconds {
							t.Errorf("%sBlink %v s, flat ring %+v (%v)", cell, r.Seconds, flat, err)
						}
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
	"3+5 40 AllReduce 1048576: 3 3f3655f30861590b 3f18e1522ebc4d5c 3f2bcc03e5575af0 3f01bce45034c1e0",
	"3+5 40 AllReduce 26214400: 3 3f79a0ff44227697 3f49d0f2a4f50ee8 3f75e2f45d4e5b46 3f207d9246af2e80",
	"3+5 40 AllReduce 104857600: 3 3f97b34812071dba 3f656fc4768ca535 3f94c3bcf0448caf 3f3064a4bc3f1900",
	"3+5 40 Broadcast 1048576: 1 3f38998540ef5735 0 3f375586a754e257 3ef43fe999a74de0",
	"3+5 40 Broadcast 26214400: 1 3f7904bda7ac7686 0 3f7883fc9b4b1d4b 3f2018218c2b2760",
	"3+5 40 Broadcast 104857600: 1 3f9799705b36cdfb 0 3f977156ad953d5f 3f240cd6d0c84e00",
	"3+5 40 AllToAll 1048576: 8 3f456fe656b4cc14 3f130aab8eb20dc1 3f430e90e4de8a5c 0",
	"3+5 40 AllToAll 26214400: 8 3f865cd055b5c5dd 3f454af9f1ccca17 3f850820b698f93c 0",
	"3+5 40 AllToAll 104857600: 8 3fa5c6e825224d65 3f63ad5e00b4b48e 3fa48c124517021c 0",
	"3+5 100 AllReduce 1048576: 3 3f2b9e2738b3709b 3f18e1522ebc4d5c 3f14402972f46e90 3f0435a59f6c4a94",
	"3+5 100 AllReduce 26214400: 3 3f6673b64f430346 3f4b0d1e7203a355 3f5d4921149b9d02 3f20bde28744bf00",
	"3+5 100 AllReduce 104857600: 3 3f83bf0b30e1aeb2 3f6633cf5824e730 3f7b569774ab53d2 3f30d97410595fa0",
	"3+5 100 Broadcast 1048576: 1 3f2ec0ed8e006f20 0 3f2c38f05acb8562 3ef43fe999a74df0",
	"3+5 100 Broadcast 26214400: 1 3f65372e124daa1b 0 3f6435abf98af7a6 3f2018218c2b2750",
	"3+5 100 Broadcast 104857600: 1 3f8387b548a03d08 0 3f833781ed5d1bcc 3f240cd6d0c84f00",
	"3+5 100 AllToAll 1048576: 8 3f3a0e57ed2e040b 3f130aab8eb20dc1 3f354bad0981809b 0",
	"3+5 100 AllToAll 26214400: 8 3f72725a3f0e7457 3f454af9f1ccca17 3f6f91f601a9b628 0",
	"3+5 100 AllToAll 104857600: 8 3f91da1ac5867586 3f63ad5e00b4b48e 3f8ec8de0adfbde8 0",
	"3+5 400 AllReduce 1048576: 3 3f25d16b84091bbe 3f18e1522ebc4d5c 3f01fcd1a0ac045c 3f03863811ffcfe4",
	"3+5 400 AllReduce 26214400: 3 3f55e88012a8b016 3f4c09295cbff98a 3f2bbd639cd9c388 3f31b0fbc2b5eb80",
	"3+5 400 AllReduce 104857600: 3 3f7076221ba69e4b 3f66e07758d88bab 3f4c5d3b793b8908 3f37a3f0012e7548",
	"3+5 400 Broadcast 1048576: 1 3f26e6f18b6d5640 0 3f22ffe1e0dc65b4 3eff387d54878460",
	"3+5 400 Broadcast 26214400: 1 3f51e5289c8fa68b 0 3f4732156c1558bf 3f3930779a13e8ae",
	"3+5 400 Broadcast 104857600: 1 3f7017ec2a657b91 0 3f6587b0d9d9b14d 3f55504ef5e28baa",
	"3+5 400 AllToAll 1048576: 8 3f31a59d8d103a06 3f130aab8eb20dc1 3f29c5e552c76d2c 0",
	"3+5 400 AllToAll 26214400: 8 3f553adc237fa298 3f454af9f1ccca17 3f452abe55327b19 0",
	"3+5 400 AllToAll 104857600: 8 3f7401000c9d8b51 3f63ad5e00b4b48e 3f6454a218866214 0",
	"5+3 40 AllReduce 1048576: 3 3f3655f30861590b 3f18e1522ebc4d5c 3f2bcc03e5575af0 3f01bce45034c1e0",
	"5+3 40 AllReduce 26214400: 3 3f79a0ff44227697 3f49d0f2a4f50ee8 3f75e2f45d4e5b46 3f207d9246af2e80",
	"5+3 40 AllReduce 104857600: 3 3f97b34812071dba 3f656fc4768ca535 3f94c3bcf0448caf 3f3064a4bc3f1900",
	"5+3 40 Broadcast 1048576: 1 3f3917598224abaa 0 3f375586a754e257 3efc1d2dacfc9530",
	"5+3 40 Broadcast 26214400: 1 3f790c9aebbfcbce 0 3f7883fc9b4b1d4b 3f2113ca0e95d060",
	"5+3 40 Broadcast 104857600: 1 3f979b67ac3ba34c 0 3f977156ad953d5f 3f25087f5332f680",
	"5+3 40 AllToAll 1048576: 8 3f456fe656b4cc14 3f130aab8eb20dc1 3f430e90e4de8a5c 0",
	"5+3 40 AllToAll 26214400: 8 3f865cd055b5c5dd 3f454af9f1ccca17 3f850820b698f93c 0",
	"5+3 40 AllToAll 104857600: 8 3fa5c6e825224d65 3f63ad5e00b4b48e 3fa48c124517021c 0",
	"5+3 100 AllReduce 1048576: 3 3f2b9e2738b3709b 3f18e1522ebc4d5c 3f14402972f46e90 3f0435a59f6c4a94",
	"5+3 100 AllReduce 26214400: 3 3f6673b64f430346 3f4b0d1e7203a355 3f5d4921149b9d02 3f20bde28744bf00",
	"5+3 100 AllReduce 104857600: 3 3f83bf0b30e1aeb2 3f6633cf5824e730 3f7b569774ab53d2 3f30d97410595fa0",
	"5+3 100 Broadcast 1048576: 1 3f2fbc96106b180b 0 3f2c38f05acb8562 3efc1d2dacfc9548",
	"5+3 100 Broadcast 26214400: 1 3f6546e89a7454a9 0 3f6435abf98af7a6 3f2113ca0e95d030",
	"5+3 100 Broadcast 104857600: 1 3f838ba3eaa9e7ac 0 3f833781ed5d1bcc 3f25087f5332f800",
	"5+3 100 AllToAll 1048576: 8 3f3a0e57ed2e040b 3f130aab8eb20dc1 3f354bad0981809b 0",
	"5+3 100 AllToAll 26214400: 8 3f72725a3f0e7457 3f454af9f1ccca17 3f6f91f601a9b628 0",
	"5+3 100 AllToAll 104857600: 8 3f91da1ac5867586 3f63ad5e00b4b48e 3f8ec8de0adfbde8 0",
	"5+3 400 AllReduce 1048576: 3 3f25d16b84091bbe 3f18e1522ebc4d5c 3f01fcd1a0ac045c 3f03863811ffcfe4",
	"5+3 400 AllReduce 26214400: 3 3f55e88012a8b016 3f4c09295cbff98a 3f2bbd639cd9c388 3f31b0fbc2b5eb80",
	"5+3 400 AllReduce 104857600: 3 3f7076221ba69e4b 3f66e07758d88bab 3f4c5d3b793b8908 3f37a3f0012e7548",
	"5+3 400 Broadcast 1048576: 1 3f2691084c4e4765 0 3f22ffe1e0dc65b4 3efc89335b8f0d88",
	"5+3 400 Broadcast 26214400: 1 3f4bcb6c601d3ac3 0 3f4732156c1558bf 3f22655bd01f8810",
	"5+3 400 Broadcast 104857600: 1 3f6734cff6f82347 0 3f6587b0d9d9b14d 3f2ad1f1d1e71fa0",
	"5+3 400 AllToAll 1048576: 8 3f31a59d8d103a06 3f130aab8eb20dc1 3f29c5e552c76d2c 0",
	"5+3 400 AllToAll 26214400: 8 3f553adc237fa298 3f454af9f1ccca17 3f452abe55327b19 0",
	"5+3 400 AllToAll 104857600: 8 3f7401000c9d8b51 3f63ad5e00b4b48e 3f6454a218866214 0",
	"1+3 40 AllReduce 1048576: 1 3f3a49822843e2c6 3f19d81ac539f078 3f328f7cdd5af1ca 3ef43fe999a74de0",
	"1+3 40 AllReduce 26214400: 1 3f79973d58da2dde 3f46f5d280a2430b 3f7637c1fc648c42 3f2018218c2b2760",
	"1+3 40 AllReduce 104857600: 1 3f97c6c6f00a5938 3f650860361afa59 3f94fda13ba56951 3f240cd6d0c84e00",
	"1+3 40 Broadcast 1048576: 1 3f375586a754e257 0 3f375586a754e257 0",
	"1+3 40 Broadcast 26214400: 1 3f7883fc9b4b1d4b 0 3f7883fc9b4b1d4b 0",
	"1+3 40 Broadcast 104857600: 1 3f977156ad953d5f 0 3f977156ad953d5f 0",
	"1+3 40 AllToAll 1048576: 4 3f31c04e134ef78b 3f0bfb758b82f831 3f2c81bec3bd310a 0",
	"1+3 40 AllToAll 26214400: 4 3f72bdcdbb41d92b 3f3e38f21380fcde 3f70da3e9a09c95d 0",
	"1+3 40 AllToAll 104857600: 4 3f91b1726a683d82 3f5d30b4575dcb7f 3f8fbcce49e4c194 0",
	"1+3 100 AllReduce 1048576: 1 3f311073ae54c321 3f19d81ac539f078 3f22acdcc6d7a44a 3ef43fe999a74de0",
	"1+3 100 AllReduce 26214400: 1 3f665c2d74a918cc 3f46f5d280a2430b 3f5f3a6d777bab28 3f2018218c2b2750",
	"1+3 100 AllReduce 104857600: 1 3f83e26272475381 3f650860361afa59 3f7ca02e12fae75e 3f240cd6d0c84f00",
	"1+3 100 Broadcast 1048576: 1 3f2c38f05acb8562 0 3f2c38f05acb8562 0",
	"1+3 100 Broadcast 26214400: 1 3f6435abf98af7a6 0 3f6435abf98af7a6 0",
	"1+3 100 Broadcast 104857600: 1 3f833781ed5d1bcc 0 3f833781ed5d1bcc 0",
	"1+3 100 AllToAll 1048576: 4 3f25659511c6cdba 3f0bfb758b82f831 3f1ccd6f5dcc1f5c 0",
	"1+3 100 AllToAll 26214400: 4 3f5ee2c0cbe71c6c 3f3e38f21380fcde 3f5754844706dd34 0",
	"1+3 100 AllToAll 104857600: 4 3f7cff9726fc759d 3f5d30b4575dcb7f 3f75b36a112502bd 0",
	"1+3 400 AllReduce 1048576: 1 3f2ba5fdd1727432 3f19d81ac539f078 3f15a5c1888916d0 3eff387d54878470",
	"1+3 400 AllReduce 26214400: 1 3f58784116461928 3f46f5d280a2430b 3f3ac4e7bdbff5ee 3f3930779a13e89c",
	"1+3 400 AllReduce 104857600: 1 3f7580f384a608f2 3f650860361afa59 3f56a2beb07fa38a 3f55504ef5e28b8c",
	"1+3 400 Broadcast 1048576: 1 3f22ffe1e0dc65b4 0 3f22ffe1e0dc65b4 0",
	"1+3 400 Broadcast 26214400: 1 3f476773f070bc59 0 3f4732156c1558bf 3edaaf422db1cd00",
	"1+3 400 Broadcast 104857600: 1 3f6587b0d9d9b14d 0 3f6587b0d9d9b14d 0",
	"1+3 400 AllToAll 1048576: 4 3f1cb0230eb67a11 3f0bfb758b82f831 3f0d64d091e9fbf1 0",
	"1+3 400 AllToAll 26214400: 4 3f41b10b76adf09f 3f3e38f21380fcde 3f14a493676b9180 0",
	"1+3 400 AllToAll 104857600: 4 3f6038fbcb546af3 3f5d30b4575dcb7f 3f2a0a19fa585338 0",
	"4+4+4 40 AllReduce 1048576: 4 3f4238bf66c9247b 3f087e139a796fe4 3f401aed3986f50b 3ef2be1e73530e40",
	"4+4+4 40 AllReduce 26214400: 4 3f8815591fe206d4 3f393e2a67ad507a 3f871dddb1d30cce 3f16c50d68c7c100",
	"4+4+4 40 AllReduce 104857600: 4 3fa724be5b98298f 3f5139ccd9730c72 3fa68b2dbc7f8512 3f1f84709a183200",
	"4+4+4 40 Broadcast 1048576: 1 3f419dd5f3bc1425 0 3f40bcec86542f7a 3efc1d2dacfc9560",
	"4+4+4 40 Broadcast 26214400: 1 3f87b126b69c4cb0 0 3f876cd78e61f56d 3f2113ca0e95d0c0",
	"4+4+4 40 Broadcast 104857600: 1 3fa7027248b7cb85 0 3fa6e96a8a958565 3f2907be22462000",
	"4+4+4 40 AllToAll 1048576: 12 3f46a6b430b1ab55 3f03c7b78ce04266 3f456a38b7e3a72f 0",
	"4+4+4 40 AllToAll 26214400: 12 3f8fb4de92421bc2 3f2c758550d87a09 3f8f43087cfeb9da 0",
	"4+4+4 40 AllToAll 104857600: 12 3faeb322119616f4 3f475bd81f8d7b5e 3fae55b2b117e107 0",
	"4+4+4 100 AllReduce 1048576: 4 3f328a449594ed63 3f087e139a796fe4 3f2c9d4076211d09 3ef2be1e73530e20",
	"4+4+4 100 AllReduce 26214400: 4 3f74316748482e98 3f393e2a67ad507a 3f7242706c2a3a8e 3f16c50d68c7c080",
	"4+4+4 100 AllReduce 104857600: 4 3f92e3c2a7536605 3f5139ccd9730c72 3f91b0a169221d0f 3f1f84709a182f00",
	"4+4+4 100 Broadcast 1048576: 1 3f315471af7accb8 0 3f2f253da95606c8 3efc1d2dacfc9540",
	"4+4+4 100 Broadcast 26214400: 1 3f73690275bcba4e 0 3f72e06425480bcb 3f2113ca0e95d060",
	"4+4+4 100 Broadcast 104857600: 1 3f929f2a8192a9fe 0 3f926d1b054e1dc0 3f2907be22461f00",
	"4+4+4 100 AllToAll 1048576: 12 3f3511f0149aea37 3f03c7b78ce04266 3f3298f922fee1ea 0",
	"4+4+4 100 AllToAll 26214400: 12 3f798cae73dc15ea 3f2c758550d87a09 3f78a9024955521a 0",
	"4+4+4 100 AllToAll 104857600: 12 3f98b0562bfc788d 3f475bd81f8d7b5e 3f97f5776b000cb2 0",
	"4+4+4 400 AllReduce 1048576: 4 3f23c829497cb1fa 3f087e139a796fe4 3f156c0c7c4782e0 3ef794f125d4a488",
	"4+4+4 400 AllReduce 26214400: 4 3f58f1f561f06ad5 3f393e2a67ad507a 3f51172bc1b12c08 3f18b3f0653eaae0",
	"4+4+4 400 AllReduce 104857600: 4 3f750bb490d1439c 3f53bfb507ca7bc8 3f6eab2ef2717cce 3f28c5fab4bcc860",
	"4+4+4 400 Broadcast 1048576: 1 3f26e9f183d26f8d 0 3f2360825bb428bc 3efc4b7940f23688",
	"4+4+4 400 Broadcast 26214400: 1 3f55b173e7fb2b03 0 3f538efaa62870fa 3f2113ca0e95d048",
	"4+4+4 400 Broadcast 104857600: 1 3f73b135e690cdf6 0 3f72e8f7f57e9cf6 3f2907be22462000",
	"4+4+4 400 AllToAll 1048576: 12 3f2a6038a1fd68df 3f03c7b78ce04266 3f256e4abec55846 0",
	"4+4+4 400 AllToAll 26214400: 12 3f5a789c6e201448 3f2c758550d87a09 3f56e9ebc4050507 0",
	"4+4+4 400 AllToAll 104857600: 12 3f79557cc1927784 3f475bd81f8d7b5e 3f766a01bda0c818 0",
}
