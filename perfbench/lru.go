package main

import "container/list"

// lruRatios replays the GETs of ops through a byte-capacity LRU that
// fills on every miss, and returns the object and byte hit ratios over
// the GETs from index from on. It is the benchmark's own reference
// policy, computed apart from the program, that Raven's hit ratio is
// checked against.
func lruRatios(ops []op, capacity int64, from int) (ohr, bhr float64) {
	type ent struct {
		key  uint64
		size int64
	}
	ll := list.New()
	idx := make(map[uint64]*list.Element, 1024)
	var used int64
	var reqs, hits, reqBytes, hitBytes int64
	for i, o := range ops {
		if o.set {
			continue
		}
		measured := i >= from
		if measured {
			reqs++
			reqBytes += o.size
		}
		if e, ok := idx[o.key]; ok {
			ll.MoveToFront(e)
			if measured {
				hits++
				hitBytes += o.size
			}
			continue
		}
		if o.size > capacity {
			continue
		}
		for used+o.size > capacity {
			back := ll.Back()
			v := back.Value.(ent)
			ll.Remove(back)
			delete(idx, v.key)
			used -= v.size
		}
		idx[o.key] = ll.PushFront(ent{key: o.key, size: o.size})
		used += o.size
	}
	if reqs == 0 || reqBytes == 0 {
		return 0, 0
	}
	return float64(hits) / float64(reqs), float64(hitBytes) / float64(reqBytes)
}
