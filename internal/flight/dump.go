package flight

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"nab/internal/obs"
)

// dumpLog reports black-box dump write failures. It is always on — a
// misconfigured autodump dir must be visible without NAB_DEBUG, and it
// only ever speaks on a failure streak's first miss (and recovery).
var dumpLog = obs.Always("flight")

// Dump file framing mirrors the WAL's standalone snapshot container: an
// 8-byte magic, a CRC-framed header, then fixed-width event records, so
// a dump survives partial writes detectably and tools/nabtrace can
// reject torn or foreign files by name.
const dumpMagic = "NABFLT01"

// eventWire is the fixed on-disk size of one event record.
const eventWire = 56

// maxDumpEvents bounds how many event records Decode will believe from
// a header, so a corrupt count cannot drive allocation.
const maxDumpEvents = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Meta describes the process and moment a dump was captured.
type Meta struct {
	// Label names the capturing process ("node-3", "nabserve", ...).
	Label string
	// Reason is the trigger ("manual", "dispute-barrier", ...).
	Reason string
	// WallNS is the capture wall-clock time in nanoseconds.
	WallNS int64
	// Total is how many events were recorded since Enable, including
	// those the ring overwrote; Total - len(Events) were lost.
	Total uint64
	// Capacity is the ring size at capture.
	Capacity int
}

// Dump is a decoded flight-recorder capture.
type Dump struct {
	Meta   Meta
	Events []Event
}

// Encode serializes a dump into the NABFLT01 container.
func Encode(d Dump) []byte {
	hdr := binary.AppendUvarint(nil, uint64(len(d.Meta.Label)))
	hdr = append(hdr, d.Meta.Label...)
	hdr = binary.AppendUvarint(hdr, uint64(len(d.Meta.Reason)))
	hdr = append(hdr, d.Meta.Reason...)
	hdr = binary.AppendVarint(hdr, d.Meta.WallNS)
	hdr = binary.AppendUvarint(hdr, d.Meta.Total)
	hdr = binary.AppendUvarint(hdr, uint64(d.Meta.Capacity))
	hdr = binary.AppendUvarint(hdr, uint64(len(d.Events)))

	buf := make([]byte, 0, len(dumpMagic)+8+len(hdr)+eventWire*len(d.Events))
	buf = append(buf, dumpMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(hdr, crcTable))
	buf = append(buf, hdr...)
	for _, ev := range d.Events {
		buf = appendEvent(buf, ev)
	}
	return buf
}

func appendEvent(buf []byte, ev Event) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.TS))
	buf = binary.LittleEndian.AppendUint64(buf, ev.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, ev.Inst)
	buf = binary.LittleEndian.AppendUint64(buf, ev.Arg)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.K))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Gen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Node))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Peer))
	buf = binary.LittleEndian.AppendUint32(buf, ev.Step)
	buf = append(buf, byte(ev.Type), 0, 0, 0)
	return buf
}

// Decode parses a NABFLT01 container. Truncated event tails are
// dropped, not fatal: a black-box dump interrupted by the crash it was
// recording is still worth reading.
func Decode(b []byte) (Dump, error) {
	if len(b) < len(dumpMagic)+8 || string(b[:len(dumpMagic)]) != dumpMagic {
		return Dump{}, fmt.Errorf("flight: not a flight dump (bad magic)")
	}
	hlen := binary.LittleEndian.Uint32(b[len(dumpMagic):])
	hsum := binary.LittleEndian.Uint32(b[len(dumpMagic)+4:])
	rest := b[len(dumpMagic)+8:]
	if uint64(len(rest)) < uint64(hlen) {
		return Dump{}, fmt.Errorf("flight: dump header truncated")
	}
	hdr := rest[:hlen]
	if crc32.Checksum(hdr, crcTable) != hsum {
		return Dump{}, fmt.Errorf("flight: dump header checksum mismatch")
	}
	var d Dump
	var count uint64
	{
		p := hdr
		var err error
		if d.Meta.Label, p, err = cutString(p); err != nil {
			return Dump{}, err
		}
		if d.Meta.Reason, p, err = cutString(p); err != nil {
			return Dump{}, err
		}
		wall, n := binary.Varint(p)
		if n <= 0 {
			return Dump{}, fmt.Errorf("flight: dump header corrupt")
		}
		p = p[n:]
		d.Meta.WallNS = wall
		vals := [3]uint64{}
		for i := range vals {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return Dump{}, fmt.Errorf("flight: dump header corrupt")
			}
			vals[i], p = v, p[n:]
		}
		d.Meta.Total = vals[0]
		d.Meta.Capacity = int(vals[1])
		count = vals[2]
	}
	if count > maxDumpEvents {
		return Dump{}, fmt.Errorf("flight: dump claims %d events (max %d)", count, maxDumpEvents)
	}
	evb := rest[hlen:]
	if uint64(len(evb)/eventWire) < count {
		count = uint64(len(evb) / eventWire) // torn tail: keep what survived
	}
	d.Events = make([]Event, count)
	for i := range d.Events {
		d.Events[i] = decodeEvent(evb[i*eventWire:])
	}
	return d, nil
}

func cutString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > 4096 || uint64(len(p)-sz) < n {
		return "", nil, fmt.Errorf("flight: dump header corrupt")
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

func decodeEvent(b []byte) Event {
	return Event{
		TS:   int64(binary.LittleEndian.Uint64(b)),
		Seq:  binary.LittleEndian.Uint64(b[8:]),
		Inst: binary.LittleEndian.Uint64(b[16:]),
		Arg:  binary.LittleEndian.Uint64(b[24:]),
		K:    int32(binary.LittleEndian.Uint32(b[32:])),
		Gen:  int32(binary.LittleEndian.Uint32(b[36:])),
		Node: int32(binary.LittleEndian.Uint32(b[40:])),
		Peer: int32(binary.LittleEndian.Uint32(b[44:])),
		Step: binary.LittleEndian.Uint32(b[48:]),
		Type: EventType(b[52]),
	}
}

// DumpBytes captures the recorder's current contents as an encoded
// dump. Returns nil while disabled.
func (r *Recorder) DumpBytes(reason string, wallNS int64) []byte {
	rg := r.ring.Load()
	if rg == nil {
		return nil
	}
	r.mu.Lock()
	label := r.label
	r.mu.Unlock()
	return Encode(Dump{
		Meta: Meta{
			Label:    label,
			Reason:   reason,
			WallNS:   wallNS,
			Total:    rg.head.Load(),
			Capacity: len(rg.slots),
		},
		Events: r.Events(),
	})
}

// SetAutodumpDir arms black-box dumps: anomaly triggers write the
// ring's contents to dir/flight-<reason>.dump (atomically, one file
// per reason so disk stays bounded). Sessions opened durably point
// this at the WAL directory. An empty dir disarms.
func (r *Recorder) SetAutodumpDir(dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dumpDir = dir
	if dir != "" && r.dumpCh == nil {
		r.dumpCh = make(chan uint64, 8)
		go r.dumpLoop(r.dumpCh)
	}
}

// Trigger records an anomaly event and, when an autodump directory is
// armed, requests an asynchronous black-box dump. Dump writing never
// happens on the caller's goroutine; a full request queue drops the
// request (the ring still holds the events for the next trigger).
func (r *Recorder) Trigger(reason uint64) {
	if !r.Enabled() {
		return
	}
	r.Record(Event{Type: EvAnomaly, Node: -1, Arg: reason})
	r.mu.Lock()
	ch := r.dumpCh
	armed := r.dumpDir != ""
	r.mu.Unlock()
	if !armed || ch == nil {
		return
	}
	select {
	case ch <- reason:
	default:
	}
}

func (r *Recorder) dumpLoop(ch chan uint64) {
	failing := map[uint64]bool{} // reasons mid failure-streak, logged once each
	for reason := range ch {
		r.mu.Lock()
		dir := r.dumpDir
		r.mu.Unlock()
		if dir == "" {
			continue
		}
		name := ReasonName(reason)
		buf := r.DumpBytes(name, nowNS())
		if buf == nil {
			continue
		}
		path := filepath.Join(dir, "flight-"+name+".dump")
		if err := writeFileAtomic(path, buf); err != nil {
			if !failing[reason] {
				failing[reason] = true
				dumpLog.Error("autodump-failed", "path", path, "err", err)
			}
		} else if failing[reason] {
			delete(failing, reason)
			dumpLog.Info("autodump-recovered", "path", path)
		}
	}
}

func writeFileAtomic(path string, buf []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}
