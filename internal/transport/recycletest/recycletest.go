// Package recycletest checks that a recycled connection record is
// indistinguishable from a never-used one — the contract each stack's
// retireConn owes transport.Endpoint.Reset.
package recycletest

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// Diff compares a recycled record with a fresh one, field by field through
// nested structs, and returns the paths that differ. Scalars must be equal;
// slices and maps (the retained containers) must be empty on both sides,
// whatever their capacity; funcs, pointers and interfaces (bound callbacks
// and the self-references they close over) must be nil on both sides or on
// neither. Paths in freeLists may hold anything: they are the record's own
// free lists, kept with their contents.
func Diff(recycled, fresh any, freeLists ...string) []string {
	var out []string
	var walk func(path string, a, b reflect.Value)
	walk = func(path string, a, b reflect.Value) {
		if slices.Contains(freeLists, strings.TrimPrefix(path, ".")) {
			return
		}
		bad := false
		switch a.Kind() {
		case reflect.Struct:
			for i := 0; i < a.NumField(); i++ {
				walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
			}
		case reflect.Array:
			for i := 0; i < a.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
			}
		case reflect.Slice, reflect.Map:
			bad = a.Len() != 0 || b.Len() != 0
		case reflect.Func, reflect.Pointer, reflect.Interface, reflect.Chan:
			bad = a.IsNil() != b.IsNil()
		default:
			bad = !a.Equal(b)
		}
		if bad {
			out = append(out, strings.TrimPrefix(path, "."))
		}
	}
	walk("", reflect.ValueOf(recycled).Elem(), reflect.ValueOf(fresh).Elem())
	return out
}
