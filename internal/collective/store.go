package collective

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// PlanStore is the on-disk tier of the plan cache: a directory of encoded
// frozen plans keyed by the plan key minus the engine identity (data-mode
// Exec closures are regenerated against the loading engine's fabric on
// decode, so on-disk plans are engine-portable — the whole point of the
// tier is that a *different* process loads them).
//
// Crash safety relies on the classic temp-file + rename protocol: a plan
// file appears in the directory only after its full payload (including a
// CRC-32 trailer) was written under a temporary name, so concurrent readers
// never observe a torn plan and a writer killed mid-put leaves only a
// `*.tmp` file that the next NewPlanStore sweeps away. Any file that still
// fails its checksum or key check (external corruption) is treated as a
// miss and removed, so the store self-heals instead of wedging a slot.
type PlanStore struct {
	dir string
	// seq disambiguates temp files of concurrent writers in one process;
	// cross-process collisions are avoided by including the PID.
	seq atomic.Uint64
}

// planFileMagic brands a store file; the payload inside is an encoded plan
// blob prefixed with the full key string so a hash collision can never
// serve the wrong plan.
const planFileMagic = "BLNKSTOR1\n"

// NewPlanStore opens (creating if needed) an on-disk plan store rooted at
// dir and sweeps any stale temp files a crashed writer left behind.
func NewPlanStore(dir string) (*PlanStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("collective: plan store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("collective: plan store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("collective: plan store: %w", err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			// Completed plans were renamed into place atomically; every temp
			// file is an aborted write.
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	return &PlanStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *PlanStore) Dir() string { return s.dir }

// storeKeyString canonicalizes a plan key for the disk tier. EngineID is
// deliberately dropped: it pins in-memory data-mode plans to the compiling
// engine's closures, but the disk tier stores the IR and regenerates
// closures at load, so the same file serves every engine on the topology.
func storeKeyString(k PlanKey) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%d|%d|%d|%d|%d|%t|%t|%s|", k.Fingerprint,
		int(k.Backend), int(k.Op), k.Root, k.Bytes, k.ChunkBytes,
		k.DataMode, k.Hybrid, k.Shape)
	c := k.Config
	for _, f := range []float64{c.OpOverhead, c.ReduceOverhead, c.ReduceBW,
		c.CopyEff, c.WireLatency, c.DisablePeerBase, c.DisablePeerPerGPU} {
		fmt.Fprintf(&sb, "%x,", math.Float64bits(f))
	}
	fmt.Fprintf(&sb, "%t", c.DataMode)
	return sb.String()
}

// fingerprintHash is the filename prefix shared by every plan of one
// topology fingerprint, which is what lets InvalidateFingerprint remove a
// dead topology's files without opening them.
func fingerprintHash(fp string) string {
	h := sha256.Sum256([]byte("fp|" + fp))
	return hex.EncodeToString(h[:8])
}

// fileFor maps a key to its plan file path.
func (s *PlanStore) fileFor(k PlanKey) string {
	kh := sha256.Sum256([]byte(storeKeyString(k)))
	name := fingerprintHash(k.Fingerprint) + "-" + hex.EncodeToString(kh[:12]) + ".plan"
	return filepath.Join(s.dir, name)
}

// Get loads the encoded plan blob stored under the key: (nil, nil) when
// absent, an error when the file exists but is corrupt (in which case it
// was removed, so the next Put heals the slot).
func (s *PlanStore) Get(k PlanKey) ([]byte, error) {
	path := s.fileFor(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("collective: plan store read: %w", err)
	}
	blob, err := parsePlanFile(raw, storeKeyString(k))
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("collective: plan store: %s: %w (removed)", filepath.Base(path), err)
	}
	return blob, nil
}

// parsePlanFile validates a store file and returns the embedded plan blob.
func parsePlanFile(raw []byte, wantKey string) ([]byte, error) {
	if len(raw) < len(planFileMagic)+4 {
		return nil, fmt.Errorf("truncated plan file (%d bytes)", len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("plan file checksum mismatch")
	}
	if string(body[:len(planFileMagic)]) != planFileMagic {
		return nil, fmt.Errorf("not a plan file (bad magic)")
	}
	rest := body[len(planFileMagic):]
	key, rest, err := readPrefixed(rest)
	if err != nil {
		return nil, err
	}
	if string(key) != wantKey {
		return nil, fmt.Errorf("plan file key mismatch (hash collision or foreign file)")
	}
	blob, rest, err := readPrefixed(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("plan file has %d trailing bytes", len(rest))
	}
	return blob, nil
}

// readPrefixed reads one uvarint-length-prefixed section.
func readPrefixed(b []byte) (section, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("bad section length in plan file")
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}

// Put atomically persists an encoded plan blob under the key: the payload
// is fully written (with its CRC trailer) to a temp file, then renamed into
// place, so a reader either sees the complete file or none at all.
func (s *PlanStore) Put(k PlanKey, blob []byte) error {
	if len(blob) == 0 {
		return fmt.Errorf("collective: refusing to store empty plan blob")
	}
	ks := storeKeyString(k)
	payload := make([]byte, 0, len(planFileMagic)+len(ks)+len(blob)+24)
	payload = append(payload, planFileMagic...)
	payload = binary.AppendUvarint(payload, uint64(len(ks)))
	payload = append(payload, ks...)
	payload = binary.AppendUvarint(payload, uint64(len(blob)))
	payload = append(payload, blob...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	payload = append(payload, crc[:]...)

	final := s.fileFor(k)
	tmp := fmt.Sprintf("%s.%d.%d.tmp", final, os.Getpid(), s.seq.Add(1))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("collective: plan store write: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("collective: plan store write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("collective: plan store write: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("collective: plan store write: %w", err)
	}
	return nil
}

// Delete removes the plan stored under the key, if any.
func (s *PlanStore) Delete(k PlanKey) { os.Remove(s.fileFor(k)) }

// InvalidateFingerprint removes every stored plan compiled for the given
// topology fingerprint and returns how many files were deleted. In a store
// shared across processes this also costs other workers on that topology a
// recompile, never correctness — the same contract as the memory tier.
func (s *PlanStore) InvalidateFingerprint(fp string) int {
	prefix := fingerprintHash(fp) + "-"
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".plan") {
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				removed++
			}
		}
	}
	return removed
}

// Len counts the plans currently on disk.
func (s *PlanStore) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".plan") {
			n++
		}
	}
	return n
}
