package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// fingerprintVersion is baked into every fingerprint so a change to the
// canonical encoding (or to what a field means) can invalidate old cache
// entries by bumping it.
const fingerprintVersion = "emcfp1"

// fingerprintExcluded lists the Config fields that never enter the
// fingerprint. They fall in two classes, both proven not to change
// simulation outcomes:
//
//   - pure observability (Obs, Metrics, MetricsLabels, CounterInterval):
//     tracing and live-counter export read timestamps the simulator produces
//     anyway (TestCycleSkipDeterminism pins this);
//   - scheduler mode (DisableCycleSkip): results are bit-identical with the
//     event-horizon scheduler on or off (same guard).
//
// Every other field is plain data (TestConfigIsPureData keeps it so).
var fingerprintExcluded = map[string]bool{
	"Obs":              true,
	"Metrics":          true,
	"MetricsLabels":    true,
	"CounterInterval":  true,
	"DisableCycleSkip": true,
}

// Fingerprint returns a canonical, content-addressed digest of every
// result-affecting field of the configuration. It is the cache key of the
// simulation-service result cache: two configs with equal fingerprints must
// produce bit-identical Results (up to the observability report), and any
// semantic change to a field must change the fingerprint.
//
// The encoding walks the struct reflectively with fields sorted by name, so
// it is independent of declaration order and of the route the config took
// to get here (JSON round-trips, copies, map iteration order).
func (c *Config) Fingerprint() string {
	var b strings.Builder
	b.WriteString(fingerprintVersion)
	b.WriteByte('{')
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	names := make([]string, 0, t.NumField())
	idx := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Name
		if fingerprintExcluded[name] {
			continue
		}
		names = append(names, name)
		idx[name] = i
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(name)
		b.WriteByte('=')
		canonValue(&b, v.Field(idx[name]))
		b.WriteByte(';')
	}
	b.WriteByte('}')
	sum := sha256.Sum256([]byte(b.String()))
	return fingerprintVersion + "-" + hex.EncodeToString(sum[:16])
}

// canonValue writes a canonical textual encoding of v: structs as
// name-sorted field lists, maps as key-sorted pairs, scalars in a fixed
// format. Any other kind (functions, channels, interfaces) has no canonical
// identity; Config never holds one (TestConfigIsPureData), so meeting one
// is a programming error and panics.
func canonValue(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			// nil and empty slices are semantically identical configs.
			b.WriteString("[]")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			canonValue(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		elems := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			var kb strings.Builder
			canonValue(&kb, k)
			keys = append(keys, kb.String())
			elems[kb.String()] = v.MapIndex(k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte(':')
			canonValue(b, elems[k])
		}
		b.WriteByte('}')
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		idx := make(map[string]int, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			names = append(names, t.Field(i).Name)
			idx[t.Field(i).Name] = i
		}
		sort.Strings(names)
		b.WriteByte('{')
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(name)
			b.WriteByte('=')
			canonValue(b, v.Field(idx[name]))
		}
		b.WriteByte('}')
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		canonValue(b, v.Elem())
	default:
		panic(fmt.Sprintf("sim: fingerprint: unsupported kind %s", v.Kind()))
	}
}
