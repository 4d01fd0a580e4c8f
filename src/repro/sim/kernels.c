/* Sequential simulation kernels, loaded through ctypes by
 * repro.sim.native.
 *
 * The loops trust their arguments: the Python callers check every
 * bound an out-of-range read or write would need (index range, input
 * alphabet, state range, array lengths) before calling in.
 */

#include <stdint.h>
#include <string.h>

/* Drive a table of finite-state machines over an access stream.
 *
 * Access t reads machine idx[t]: its state goes to before[t], then
 * becomes transitions[inputs[t] * n_states + state]. state[] is the
 * caller's table and is updated in place, so a stream split in two
 * and run in order gives the same result as one run. */
void repro_automaton(const int64_t *idx, const uint8_t *inputs, int64_t n,
                     const uint8_t *transitions, int64_t n_states,
                     uint8_t *state, uint8_t *before)
{
    for (int64_t t = 0; t < n; t++) {
        uint8_t *entry = state + idx[t];
        uint8_t s = *entry;
        before[t] = s;
        *entry = transitions[(int64_t)inputs[t] * n_states + s];
    }
}

/* A table of shift registers over an access stream: access t takes
 * register regs[key[t]] (regs[0] when key is NULL), sets it to reset
 * where reset_at[t] is set (reset_at may be NULL), writes it to out[t]
 * and stores ((r << shift) | chunk[t]) & mask back into regs[]. */
void repro_history(const int64_t *key, const uint8_t *reset_at,
                   const uint8_t *chunk, int64_t n, int64_t shift,
                   uint64_t mask, uint64_t reset, uint64_t *regs,
                   int64_t *out)
{
    for (int64_t t = 0; t < n; t++) {
        uint64_t *reg = regs + (key ? key[t] : 0);
        uint64_t r = (reset_at && reset_at[t]) ? reset : *reg;
        out[t] = (int64_t)r;
        *reg = ((r << shift) | chunk[t]) & mask;
    }
}

/* Hit/miss stream of a tagged set-associative LRU table.
 *
 * Access t looks up word pc[t] >> 2 in set word % num_sets under tag
 * word / num_sets. ways[set * assoc ...] holds the set's tags, most
 * recently used first, and fill[set] how many are valid. A miss
 * inserts the tag at the front (dropping the LRU way of a full set);
 * a hit moves it to the front. */
void repro_lru(const uint64_t *pc, int64_t n, uint64_t num_sets,
               int64_t assoc, uint64_t *ways, int64_t *fill, uint8_t *miss)
{
    for (int64_t t = 0; t < n; t++) {
        uint64_t word = pc[t] >> 2;
        uint64_t set = word % num_sets;
        uint64_t tag = word / num_sets;
        uint64_t *w = ways + set * (uint64_t)assoc;
        int64_t used = fill[set];
        int64_t pos = 0;
        while (pos < used && w[pos] != tag)
            pos++;
        if (pos == used) {
            miss[t] = 1;
            if (used < assoc)
                fill[set] = ++used;
            pos = used - 1;
        } else {
            miss[t] = 0;
        }
        memmove(w + 1, w, (size_t)pos * sizeof *w);
        w[0] = tag;
    }
}
