/* Flat-loop C implementations of the traversal hot paths: the sweep
 * hot pair (ordered BFS + Euler-interval subtree recompute), the
 * weighted (hops, pert_sum) level relaxation, the Pcons detour batch's
 * escape pass over the relaxation's stacked state, and Phase S1's
 * batched interference existence query.
 *
 * Compiled on demand by repro.engine.cbuild with the system C compiler
 * and loaded through ctypes; repro/engine/compiled.py is the only
 * caller.  Every function operates on the caller's cached CSR arrays
 * (int64 offsets/ids, uint8 masks, passed as raw pointers) and writes
 * into caller-allocated int64 outputs, so the Python side stays
 * allocation-compatible with the numpy kernels it replaces.  Nothing
 * here touches the Python API, so ctypes releases the GIL around every
 * call.
 *
 * Bit-identity with repro/engine/kernels.py (the acceptance bar):
 *
 * - The BFS dequeues in discovery order and walks each vertex's
 *   neighbors in CSR order (= the graph's adjacency-list order), so
 *   the first discoverer of a vertex - its parent - and the per-level
 *   dequeue order match the reference deque BFS exactly.  numpy's
 *   per-level unique(return_index) + stable argsort picks the same
 *   first discoverer from the same stream.
 * - The Euler walk replays FailureSweep._euler verbatim: children
 *   grouped per parent in BFS-discovery order, an iterative DFS with
 *   children pushed in reverse, tin/preorder stamped on entry and
 *   tout on exit.
 * - The subtree recompute settles levels in increasing order; its
 *   output is a distance vector (order-free values), identical to the
 *   numpy multi-level-seeded BFS by the same unit-weight argument.
 *
 * Bit-identity with repro/engine/weighted_kernels.py:
 *
 * - The weighted relaxation settles each hop level in (pert, vertex)
 *   order - the reference heap's pop order - and relaxes each settled
 *   vertex's out-edges in CSR order, so candidates arrive per target
 *   in exactly the reference's arrival order.  A direct running-min
 *   per target therefore reproduces the reference's order-dependent
 *   state verbatim; the numpy path's lexsort-group machinery is a
 *   vectorization workaround for the same sequential semantics, not
 *   extra behavior.
 * - Source runs (every seed at hop 0: the Pcons detour searches,
 *   build_spt, csr shortest_paths) choose per layer and per level
 *   between that top-down step and a bottom-up one, in which each
 *   unlabeled vertex gathers its candidates from its own edges and
 *   replays them in the settle order top-down would deliver them in,
 *   through the same running minimum - so it meets the same labels and
 *   the same ties.  The choice compares the half-edges each direction
 *   would scan, with a constant measured on dense and sparse detour
 *   batches.  Seeded runs (the weighted sweep) stay top-down: their
 *   seed incumbents and stale labels at higher hops break the premise
 *   that an unlabeled vertex is one this level first touches (see
 *   repro_weighted_levels).
 * - The order-dependent tie event - a candidate equal to the target's
 *   current running minimum through a different edge - is detected
 *   exactly (not over-approximated), and so are seed ties and invalid
 *   seeds: the kernel bails out and the caller hands the call back to
 *   the reference Dijkstra, which raises its own error with its own
 *   message.  Tie and seed-error semantics live only there.
 * - The target stop rule expands exactly the vertices the reference
 *   expands before its first pop at hop R (see repro_weighted_levels),
 *   in the same order, so both meet the same ties.
 *
 * Bit-identity with repro/engine/base.py:
 *
 * - The detour escape pass (repro_detour_escapes) replays
 *   escape_table over the stacked (settled, hop, pert) state: the same
 *   candidates in the same adjacency order under the same strict
 *   comparison, on the (hops, pert) pair instead of the big-int
 *   composite.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNREACHABLE (-1)

/* Queue BFS; the queue array doubles as the discovery order.  Any of
 * edge_ok (uint8 per edge id), vertex_ok (uint8 per vertex), parent,
 * and parent_eid may be NULL.  dist and order must be length n; dist
 * is fully initialized (unreached = -1), order only up to the return
 * value.  Returns the number of visited vertices. */
static int64_t bfs_core(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    int64_t source,
    const uint8_t *edge_ok,
    const uint8_t *vertex_ok,
    int64_t *dist,
    int64_t *parent,
    int64_t *parent_eid,
    int64_t *order)
{
    for (int64_t v = 0; v < n; v++) {
        dist[v] = UNREACHABLE;
        if (parent) parent[v] = -1;
        if (parent_eid) parent_eid[v] = -1;
    }
    if (vertex_ok && !vertex_ok[source])
        return 0;
    dist[source] = 0;
    if (parent) parent[source] = source;
    order[0] = source;
    int64_t head = 0, tail = 1;
    while (head < tail) {
        int64_t v = order[head++];
        int64_t dv = dist[v];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t w = indices[k];
            if (dist[w] != UNREACHABLE) continue;
            if (edge_ok && !edge_ok[edge_ids[k]]) continue;
            if (vertex_ok && !vertex_ok[w]) continue;
            dist[w] = dv + 1;
            if (parent) parent[w] = v;
            if (parent_eid) parent_eid[w] = edge_ids[k];
            order[tail++] = w;
        }
    }
    return tail;
}

/* bfs_levels / bfs_levels_ordered equivalent (see bfs_core for the
 * NULL-able arguments and outputs). */
int64_t repro_bfs_order(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    int64_t source,
    const uint8_t *edge_ok,
    const uint8_t *vertex_ok,
    int64_t *dist,
    int64_t *parent,
    int64_t *parent_eid,
    int64_t *order)
{
    return bfs_core(n, indptr, indices, edge_ids, source,
                    edge_ok, vertex_ok, dist, parent, parent_eid, order);
}

/* The FailureSweep base state in one call: ordered BFS plus the Euler
 * walk of the resulting tree.  All outputs are length-n int64 arrays;
 * unreached vertices keep tin = tout = -1 and preorder is meaningful
 * only up to the returned visited count.  Returns the visited count,
 * or -1 on allocation failure (the caller falls back to numpy). */
int64_t repro_bfs_euler(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    int64_t source,
    const uint8_t *edge_ok,
    int64_t *dist,
    int64_t *parent,
    int64_t *parent_eid,
    int64_t *order,
    int64_t *tin,
    int64_t *tout,
    int64_t *preorder)
{
    int64_t visited = bfs_core(n, indptr, indices, edge_ids, source,
                               edge_ok, NULL, dist, parent, parent_eid,
                               order);
    for (int64_t v = 0; v < n; v++)
        tin[v] = tout[v] = -1;

    /* Children of each parent in BFS-discovery order, via a counting
     * sort over parent[] along `order` (the discovery sequence). */
    int64_t *cnt = calloc((size_t)(n + 1), sizeof(int64_t));
    int64_t *kids = malloc((size_t)(visited > 0 ? visited : 1) * sizeof(int64_t));
    int64_t *stack = malloc((size_t)(2 * visited + 1) * sizeof(int64_t));
    if (!cnt || !kids || !stack) {
        free(cnt); free(kids); free(stack);
        return -1;
    }
    for (int64_t i = 1; i < visited; i++)  /* skip the source (own parent) */
        cnt[parent[order[i]] + 1]++;
    for (int64_t v = 0; v < n; v++)
        cnt[v + 1] += cnt[v];               /* cnt[v] = offset of v's kids */
    int64_t *fill = malloc((size_t)n * sizeof(int64_t));
    if (!fill) {
        free(cnt); free(kids); free(stack);
        return -1;
    }
    memcpy(fill, cnt, (size_t)n * sizeof(int64_t));
    for (int64_t i = 1; i < visited; i++) {
        int64_t v = order[i];
        kids[fill[parent[v]]++] = v;
    }

    /* Iterative DFS, children pushed reversed so the leftmost (first
     * discovered) child is visited first.  Stack encodes "enter v" as
     * v + 1 and "exit v" as -(v + 1). */
    int64_t clock = 0;
    int64_t sp = 0;
    stack[sp++] = source + 1;
    while (sp > 0) {
        int64_t item = stack[--sp];
        if (item < 0) {
            tout[-item - 1] = clock;
            continue;
        }
        int64_t v = item - 1;
        tin[v] = clock;
        preorder[clock] = v;
        clock++;
        stack[sp++] = -(v + 1);
        for (int64_t k = cnt[v + 1] - 1; k >= cnt[v]; k--)
            stack[sp++] = kids[k] + 1;
    }
    free(cnt); free(kids); free(stack); free(fill);
    return visited;
}

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* FailureSweep._recompute_subtree: hop distances after failing tree
 * edge `failed_eid` whose deeper endpoint's Euler interval is
 * [tin_c, tout_c).  `out` (length n) receives the full new distance
 * vector; `base`, `tin`, `preorder` are the sweep's base state.
 * Returns 0, or -1 on allocation failure (caller falls back). */
int64_t repro_recompute_subtree(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const uint8_t *edge_ok,
    int64_t failed_eid,
    const int64_t *tin,
    int64_t tin_c,
    int64_t tout_c,
    const int64_t *preorder,
    const int64_t *base,
    int64_t *out)
{
    const int64_t INF = INT64_MAX;
    int64_t sub_size = tout_c - tin_c;
    const int64_t *sub = preorder + tin_c;
    memcpy(out, base, (size_t)n * sizeof(int64_t));
    if (sub_size <= 0)
        return 0;

    int64_t *tent = malloc((size_t)sub_size * sizeof(int64_t));
    int64_t *keys = malloc((size_t)sub_size * sizeof(int64_t));
    int64_t *act = malloc((size_t)sub_size * sizeof(int64_t));
    int64_t *fr = malloc((size_t)sub_size * sizeof(int64_t));
    int64_t *nx = malloc((size_t)sub_size * sizeof(int64_t));
    if (!tent || !keys || !act || !fr || !nx) {
        free(tent); free(keys); free(act); free(fr); free(nx);
        return -1;
    }
    for (int64_t i = 0; i < sub_size; i++) {
        out[sub[i]] = UNREACHABLE;
        tent[i] = INF;
    }

    /* Crossing-edge seeds: every surviving path into the subtree last
     * enters through an edge (w, v) with w outside the interval;
     * outside distances are unchanged, so v is seeded at base[w] + 1.
     * Local subtree index of v = tin[v] - tin_c (preorder positions). */
    for (int64_t i = 0; i < sub_size; i++) {
        int64_t v = sub[i];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t e = edge_ids[k];
            if (e == failed_eid) continue;
            if (edge_ok && !edge_ok[e]) continue;
            int64_t tw = tin[indices[k]];
            if (tw >= tin_c && tw < tout_c) continue;  /* internal edge */
            int64_t bw = base[indices[k]];
            if (bw == UNREACHABLE) continue;           /* dead outside end */
            if (bw + 1 < tent[i]) tent[i] = bw + 1;
        }
    }
    int64_t nseeds = 0;
    for (int64_t i = 0; i < sub_size; i++)
        if (tent[i] != INF)
            keys[nseeds++] = tent[i] * (n + 1) + i;  /* (level, index) packed */
    qsort(keys, (size_t)nseeds, sizeof(int64_t), cmp_int64);

    /* Settle levels in increasing order: each round merges the seeds of
     * the round's level with the relaxation frontier carried over from
     * the previous round (whenever the frontier is non-empty its level
     * is <= every remaining seed level, so it is always consumed). */
    int64_t sp = 0;          /* next unconsumed seed */
    int64_t flen = 0;        /* relaxation frontier size ... */
    int64_t flevel = 0;      /* ... and its level */
    while (sp < nseeds || flen > 0) {
        int64_t lvl;
        if (flen > 0)
            lvl = flevel;
        else
            lvl = keys[sp] / (n + 1);
        if (sp < nseeds) {
            int64_t slvl = keys[sp] / (n + 1);
            if (slvl < lvl) lvl = slvl;
        }
        int64_t alen = 0;
        while (sp < nseeds && keys[sp] / (n + 1) == lvl) {
            int64_t i = keys[sp] % (n + 1);
            sp++;
            if (out[sub[i]] == UNREACHABLE && tent[i] == lvl) {
                out[sub[i]] = lvl;
                act[alen++] = i;
            }
        }
        if (flen > 0 && flevel == lvl) {
            for (int64_t j = 0; j < flen; j++) {
                int64_t i = fr[j];
                if (out[sub[i]] == UNREACHABLE && tent[i] == lvl) {
                    out[sub[i]] = lvl;
                    act[alen++] = i;
                }
            }
            flen = 0;
        }
        int64_t nlen = 0;
        for (int64_t j = 0; j < alen; j++) {
            int64_t v = sub[act[j]];
            for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
                int64_t e = edge_ids[k];
                if (e == failed_eid) continue;
                if (edge_ok && !edge_ok[e]) continue;
                int64_t w = indices[k];
                int64_t tw = tin[w];
                if (tw < tin_c || tw >= tout_c) continue;  /* outside */
                if (out[w] != UNREACHABLE) continue;       /* settled */
                int64_t iw = tw - tin_c;
                if (tent[iw] > lvl + 1) {
                    tent[iw] = lvl + 1;   /* also dedupes within nx */
                    nx[nlen++] = iw;
                }
            }
        }
        int64_t *tmp = fr; fr = nx; nx = tmp;
        flen = nlen;
        flevel = lvl + 1;
    }
    free(tent); free(keys); free(act); free(fr); free(nx);
    return 0;
}

/* A settling vertex: sorted by (pert, id), the reference heap's pop
 * order.  Stacked layers keep this exact within a level too - layer
 * offsets are multiples of n_base, so global-id order within a layer
 * equals local-id order. */
typedef struct {
    int64_t pert;
    int64_t id;
} wl_entry;

static int cmp_wl_entry(const void *a, const void *b)
{
    const wl_entry *x = (const wl_entry *)a;
    const wl_entry *y = (const wl_entry *)b;
    if (x->pert != y->pert)
        return (x->pert > y->pert) - (x->pert < y->pert);
    return (x->id > y->id) - (x->id < y->id);
}

/* One bottom-up candidate of an unlabeled vertex: its neighbour
 * key.id, settled at this level with pert_t = key.pert, through edge
 * eid.  The key leads, so cmp_wl_entry orders candidates by their
 * neighbours' settle order. */
typedef struct {
    wl_entry key;
    int64_t eid;
} bu_cand;

/* Sorts n records of size bytes, each led by a wl_entry key, by that
 * key: by insertion up to SMALL_SORT records, by qsort beyond.  A
 * layer's level, or one vertex's bottom-up candidates, is often a few
 * dozen records, where qsort's calls and scratch cost more than the
 * moves they save: per-call qsort made the weighted sweep on G(700,
 * 62/699) ~8% slower (13.1-13.2 -> 14.2 ms, best of 20) and took half
 * the bottom-up time of its detour searches. */
#define SMALL_SORT 64

static void sort_keyed(void *base, int64_t n, size_t size)
{
    if (n > SMALL_SORT) {
        qsort(base, (size_t)n, size, cmp_wl_entry);
        return;
    }
    char *a = base;
    bu_cand x;  /* room for the larger record */
    for (int64_t i = 1; i < n; i++) {
        memcpy(&x, a + (size_t)i * size, size);
        int64_t j = i - 1;
        while (j >= 0 && cmp_wl_entry(a + (size_t)j * size, &x) > 0) {
            memcpy(a + (size_t)(j + 1) * size, a + (size_t)j * size, size);
            j--;
        }
        memcpy(a + (size_t)(j + 1) * size, &x, size);
    }
}

/* The direction rule of source runs: a layer takes the bottom-up step
 * at a level when BU_COST times the degree sum of its unlabeled allowed
 * vertices is below the degree sum of the level's vertices, which
 * top-down would expand (see repro_weighted_levels for the measurement
 * behind the constant). */
#define BU_COST 1

/* What one relaxation reads and writes. */
typedef struct {
    int64_t n_base;
    const int64_t *indptr;
    const int64_t *indices;
    const int64_t *edge_ids;
    const int64_t *pert_edge;
    const uint8_t *edge_ok;
    const uint8_t *vertex_ok;
    const uint8_t *allowed_ok;
    uint8_t *settled;
    int64_t *hop_t;
    int64_t *pert_t;
    int64_t *parent;
    int64_t *parent_eid;
} wl_graph;

/* Per-layer scratch, n_base entries each: a level's entries, the
 * frontier pair, and - bottom-up only - the unvisited list and one
 * vertex's candidates. */
typedef struct {
    wl_entry *act;
    int64_t *fr;
    int64_t *nx;
    int64_t *unv;
    bu_cand *cand;
} wl_scratch;

/* The top-down step of one layer: the level's vertices act[0 .. alen),
 * in (pert, id) order, stream their out-edges in CSR order through the
 * filters.  A target holding a next-level label (an earlier arrival, or
 * a seed incumbent) keeps the running minimum: strict improvement
 * overwrites, so the first arrival among equals wins, and equality
 * through a different edge is the reference's tie event.  Any other
 * target - unlabeled, or holding a stale label from a higher hop, never
 * settled and never comparable - is plainly overwritten and joins
 * nx[*nlen ..); an unlabeled one leaves *udeg.  Returns 1 on the tie
 * event, else 0. */
static int64_t top_down_step(
    const wl_graph *g, int64_t off, int64_t lvl,
    const wl_entry *act, int64_t alen, int64_t *nx, int64_t *nlen,
    int64_t *udeg)
{
    const int64_t *indptr = g->indptr;
    for (int64_t j = 0; j < alen; j++) {
        int64_t v = act[j].id;
        int64_t local = v - off;
        int64_t pv = g->pert_t[v];
        for (int64_t k = indptr[local]; k < indptr[local + 1]; k++) {
            int64_t e = g->edge_ids[k];
            if (g->edge_ok && !g->edge_ok[e]) continue;
            int64_t x = g->indices[k];
            int64_t w = x + off;
            if (g->settled[w]) continue;
            if (g->vertex_ok && !g->vertex_ok[w]) continue;
            if (g->allowed_ok && !g->allowed_ok[w]) continue;
            int64_t c = pv + g->pert_edge[e];
            if (g->hop_t[w] == lvl + 1) {
                if (c < g->pert_t[w]) {
                    g->pert_t[w] = c;
                    g->parent[w] = v;
                    g->parent_eid[w] = e;
                } else if (c == g->pert_t[w] && g->parent_eid[w] != e) {
                    return 1;
                }
            } else {
                if (g->hop_t[w] == -1)
                    *udeg -= indptr[x + 1] - indptr[x];
                g->hop_t[w] = lvl + 1;
                g->pert_t[w] = c;
                g->parent[w] = v;
                g->parent_eid[w] = e;
                nx[(*nlen)++] = w;
            }
        }
    }
    return 0;
}

/* The bottom-up step of one layer (source runs only): each vertex of
 * the unvisited list that is still unlabeled gathers, through the
 * top-down filters, its neighbours settled at this level, sorts them
 * into settle order and replays them through the same running minimum
 * and tie rule.  Labeled vertices join nx[*nlen ..), leave *udeg and
 * drop off the list.  Returns 1 on the tie event, else 0. */
static int64_t bottom_up_step(
    const wl_graph *g, int64_t off, int64_t lvl,
    int64_t *unv, int64_t *ucnt, bu_cand *cand, int64_t *nx,
    int64_t *nlen, int64_t *udeg)
{
    const int64_t *indptr = g->indptr;
    int64_t keep = 0;
    for (int64_t i = 0; i < *ucnt; i++) {
        int64_t w = unv[i];
        if (g->hop_t[w] != -1)
            continue;  /* labeled top-down at an earlier level */
        int64_t local = w - off;
        int64_t nc = 0;
        for (int64_t k = indptr[local]; k < indptr[local + 1]; k++) {
            int64_t u = g->indices[k] + off;
            if (!g->settled[u] || g->hop_t[u] != lvl) continue;
            int64_t e = g->edge_ids[k];
            if (g->edge_ok && !g->edge_ok[e]) continue;
            cand[nc].key.pert = g->pert_t[u];
            cand[nc].key.id = u;
            cand[nc].eid = e;
            nc++;
        }
        if (nc == 0) {
            unv[keep++] = w;
            continue;
        }
        sort_keyed(cand, nc, sizeof(bu_cand));
        int64_t best = cand[0].key.pert + g->pert_edge[cand[0].eid];
        int64_t par = cand[0].key.id, pe = cand[0].eid;
        for (int64_t c = 1; c < nc; c++) {
            int64_t val = cand[c].key.pert + g->pert_edge[cand[c].eid];
            if (val < best) {
                best = val;
                par = cand[c].key.id;
                pe = cand[c].eid;
            } else if (val == best && cand[c].eid != pe) {
                return 1;
            }
        }
        g->hop_t[w] = lvl + 1;
        g->pert_t[w] = best;
        g->parent[w] = par;
        g->parent_eid[w] = pe;
        nx[(*nlen)++] = w;
        *udeg -= indptr[local + 1] - indptr[local];
    }
    *ucnt = keep;
    return 0;
}

/* Settles v at level lvl into act[*alen] unless its label moved on
 * (settled, or hop_t no longer the level: the bucket drain's filter);
 * *fdeg sums the degrees a top-down step would scan. */
static void settle(const wl_graph *g, int64_t v, int64_t lvl, int64_t off,
                   wl_entry *act, int64_t *alen, int64_t *fdeg)
{
    if (g->settled[v] || g->hop_t[v] != lvl)
        return;
    g->settled[v] = 1;
    act[*alen].pert = g->pert_t[v];
    act[*alen].id = v;
    (*alen)++;
    *fdeg += g->indptr[v - off + 1] - g->indptr[v - off];
}

/* One layer b of a relaxation, from its schedule sched[0 .. nsched) -
 * the layer's surviving seed labels in (hop, id) order - to the end of
 * its search.  bottom_up lets each level take the cheaper direction,
 * and tgt_ptr/tgt carry the stop rule (source runs only, both; see
 * repro_weighted_levels). */
static int64_t run_layer(
    const wl_graph *g, const wl_scratch *s, int64_t b,
    const wl_entry *sched, int64_t nsched, int64_t bottom_up,
    const int64_t *tgt_ptr, const int64_t *tgt)
{
    const int64_t n_base = g->n_base, off = b * n_base;
    const int64_t *indptr = g->indptr;
    int64_t *fr = s->fr, *nx = s->nx;

    /* The unvisited list: the layer's unlabeled allowed vertices, and
     * udeg, the degree sum a bottom-up step would scan. */
    int64_t ucnt = 0, udeg = 0;
    for (int64_t x = 0; bottom_up && x < n_base; x++) {
        int64_t w = off + x;
        if (g->hop_t[w] != -1) continue;
        if (g->vertex_ok && !g->vertex_ok[w]) continue;
        if (g->allowed_ok && !g->allowed_ok[w]) continue;
        s->unv[ucnt++] = w;
        udeg += indptr[x + 1] - indptr[x];
    }

    /* tgt[t .. t_end): the layer's targets not yet seen labeled. */
    int64_t t = tgt_ptr ? tgt_ptr[b] : 0, t_end = tgt_ptr ? tgt_ptr[b + 1] : 0;
    int64_t sp = 0, flen = 0, lvl = 0;
    while (sp < nsched || flen > 0) {
        /* A carried frontier is the next level: every schedule entry
         * below it was drained at its own level. */
        if (flen == 0)
            lvl = sched[sp].pert;
        int64_t stop = 0;
        if (tgt_ptr) {
            while (t < t_end && g->hop_t[tgt[t]] != -1)
                t++;
            stop = t == t_end;
        }
        int64_t alen = 0, fdeg = 0;
        while (sp < nsched && sched[sp].pert == lvl)
            settle(g, sched[sp++].id, lvl, off, s->act, &alen, &fdeg);
        for (int64_t j = 0; j < flen; j++)
            settle(g, fr[j], lvl, off, s->act, &alen, &fdeg);
        if (stop)
            return 0;  /* lvl is the radius: settled, not expanded */
        int64_t nlen = 0, rc;
        if (bottom_up && BU_COST * udeg < fdeg) {
            rc = bottom_up_step(g, off, lvl, s->unv, &ucnt, s->cand, nx,
                                &nlen, &udeg);
        } else {
            sort_keyed(s->act, alen, sizeof(wl_entry));
            rc = top_down_step(g, off, lvl, s->act, alen, nx, &nlen, &udeg);
        }
        if (rc != 0)
            return rc;
        int64_t *tmp = fr; fr = nx; nx = tmp;
        flen = nlen;
        lvl++;
    }
    return 0;
}

/* weighted_levels equivalent: seed intake plus the level-synchronous
 * two-array (hops, pert_sum) relaxation over n_total = B * n_base
 * stacked layers (pass n_total == n_base for a plain single-layer
 * run).  Seeds arrive as raw columns in the reference's arrival order
 * and go through the reference's sequential running-min intake: a
 * strictly smaller (hop, pert) label overwrites, equality through a
 * different entry edge is the reference's seed tie, and a seed outside
 * the allowed set - or out of array range entirely - is refused before
 * it touches anything; both bail (see below).  The surviving
 * per-vertex labels, sorted by (hop, id), form the drain schedule.
 *
 * Layers share no vertex and a tie in any of them hands the whole call
 * back, so the layers run one after another (run_layer), each on its
 * own run of the schedule.  Each level merges the layer's due schedule
 * entries with its carried frontier, settles them, and expands them in
 * one of two directions:
 *
 * - top-down: the level's vertices, sorted by (pert, id) - the
 *   reference heap's pop order - relax their out-edges in CSR order,
 *   so candidates arrive per target in exactly the reference's arrival
 *   order, and a running minimum per target reproduces the reference's
 *   order-dependent state;
 * - bottom-up, in source runs only (every seed at hop 0: the Pcons
 *   detour searches, build_spt, csr shortest_paths): each unlabeled
 *   allowed vertex scans its own edges for neighbours settled at this
 *   level, through the same filters (edge_ok, and - on the vertex
 *   itself - vertex_ok and allowed_ok), sorts them by the neighbours'
 *   (pert, id) and replays them through the same running minimum and
 *   tie rule.  The graph is simple, so each neighbour offers one
 *   candidate, and top-down would deliver the vertex exactly these
 *   candidates in exactly this order.  The replay
 *   keeps that order, not the adjacency order, because the tie event
 *   depends on it: arrivals (5, 3, 5) never tie, (5, 5, 3) do.
 *
 * A source run's layer takes bottom-up at a level when BU_COST times
 * the degree sum of its unlabeled allowed vertices (its unvisited list,
 * which shrinks as they are labeled) is below the degree sum of the
 * level's vertices - the direction-optimizing BFS of Beamer, Asanovic
 * and Patterson (SC'12), without its early exit, since the running
 * minimum needs every candidate.  On G(700, 62/699), Pcons's radius-3
 * searches reach ~633 level-2 vertices (~39k half-edges) to label ~1.4
 * at level 3, and bottom-up scans the few unvisited ones instead.  The
 * constant was measured on the Pcons detour batch of that input (its
 * 699 T0 paths) and on bench_replacement's sparse ones (1,200 deep T0
 * paths of G(1500, 12/1499) and G(5000, 20/4999)): on the dense input
 * factors 1/4 to 4 read the same (its level-2 steps favour bottom-up
 * ~150 to 1); on G(5000, 20/4999) factors 1/4 to 2 read the same and 4
 * and 8 took 1.4x and 1.9x longer, and on G(1500, 12/1499) 2 took 1.2x
 * longer than 1.  Labels, parents, radii and hand-backs are the same
 * whichever direction a level takes.
 *
 * Seeded runs (the weighted sweep's subtree recomputes) stay top-down.
 * Their seeds put incumbents at the next level's hop and stale labels
 * at higher hops, which top-down improves or overwrites; bottom-up
 * reads "unlabeled" as "not reached yet" and would miss both.
 *
 * The stop rule (tgt_ptr and tgt, both NULL for none; source runs
 * only): layer b's targets are the global ids tgt[tgt_ptr[b] ..
 * tgt_ptr[b+1]).  In a source run a label's hop is fixed when it is
 * first set, so when a level starts with every target of a layer
 * labeled, that level is the layer's radius R - the largest target hop
 * - and the layer stops: its level-R entries are marked settled (their
 * labels are final once level R - 1 has expanded) but neither sorted
 * nor expanded, and nothing beyond R is ever labeled.  That is the
 * reference's stop at its first pop at hop R, and it expands exactly
 * the vertices the reference expands before that pop, so both meet the
 * same ties.  A layer with an unreachable target runs to completion.
 *
 * Returns 0 on completion; on any bail-out the caller hands the call
 * back to the reference Dijkstra, which decides the outcome: 1 =
 * relaxation tie, 2 = seed tie or invalid seed, -1 = allocation
 * failure.  A bail may leave the state mid-run, but every write lies
 * within the allowed positions, so a caller that owns the state
 * resets exactly those. */
int64_t repro_weighted_levels(
    int64_t n_total,
    int64_t n_base,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const int64_t *pert_edge,
    const uint8_t *edge_ok,
    const uint8_t *vertex_ok,
    const uint8_t *allowed_ok,
    const int64_t *tgt_ptr,
    const int64_t *tgt,
    int64_t nseeds,
    const int64_t *seed_hop,
    const int64_t *seed_pert,
    const int64_t *seed_vertex,
    const int64_t *seed_parent,
    const int64_t *seed_parent_eid,
    uint8_t *settled,
    int64_t *hop_t,
    int64_t *pert_t,
    int64_t *parent,
    int64_t *parent_eid)
{
    if (nseeds <= 0)
        return 0;
    wl_entry *sched = malloc((size_t)nseeds * sizeof(wl_entry));
    if (!sched)
        return -1;
    int64_t rc = 0;

    /* Intake.  First-touch detection rides on the entry contract that
     * hop_t is -1 at every position this run may label. */
    int64_t nsched = 0;
    int64_t source_run = 1;
    for (int64_t j = 0; j < nseeds; j++) {
        int64_t v = seed_vertex[j];
        if (v < 0 || v >= n_total || (allowed_ok && !allowed_ok[v])) {
            rc = 2;
            break;
        }
        int64_t h0 = seed_hop[j], p0 = seed_pert[j];
        if (h0 != 0)
            source_run = 0;
        int64_t ch = hop_t[v];
        if (ch == -1 || h0 < ch || (h0 == ch && p0 < pert_t[v])) {
            if (ch == -1)
                sched[nsched++].id = v;  /* hop key assigned post-intake */
            hop_t[v] = h0;
            pert_t[v] = p0;
            parent[v] = seed_parent[j];
            parent_eid[v] = seed_parent_eid[j];
        } else if (h0 == ch && p0 == pert_t[v] &&
                   seed_parent_eid[j] != parent_eid[v]) {
            rc = 2;  /* the reference's seed tie */
            break;
        }
    }
    if (rc != 0) {
        free(sched);
        return rc;
    }
    for (int64_t j = 0; j < nsched; j++)
        sched[j].pert = hop_t[sched[j].id];  /* final label's hop */
    qsort(sched, (size_t)nsched, sizeof(wl_entry), cmp_wl_entry);

    /* A valid seed makes n_total, hence n_base, positive.  Each layer's
     * schedule becomes one run of by_layer, still in (hop, id) order (a
     * stable counting sort by layer). */
    int64_t n_layers = n_total / n_base;
    size_t width = (size_t)n_base;
    int64_t *end = calloc((size_t)n_layers, sizeof(int64_t));
    wl_entry *by_layer = malloc((size_t)nsched * sizeof(wl_entry));
    wl_scratch s = {
        malloc(width * sizeof(wl_entry)),
        malloc(width * sizeof(int64_t)),
        malloc(width * sizeof(int64_t)),
        source_run ? malloc(width * sizeof(int64_t)) : NULL,
        source_run ? malloc(width * sizeof(bu_cand)) : NULL,
    };
    if (!end || !by_layer || !s.act || !s.fr || !s.nx ||
        (source_run && (!s.unv || !s.cand))) {
        rc = -1;
    } else {
        for (int64_t j = 0; j < nsched; j++)
            end[sched[j].id / n_base]++;
        for (int64_t b = 1; b < n_layers; b++)
            end[b] += end[b - 1];
        for (int64_t j = nsched - 1; j >= 0; j--)
            by_layer[--end[sched[j].id / n_base]] = sched[j];
        /* end[b] is now where layer b's run starts. */
        const wl_graph g = {
            n_base, indptr, indices, edge_ids, pert_edge, edge_ok,
            vertex_ok, allowed_ok, settled, hop_t, pert_t, parent,
            parent_eid,
        };
        for (int64_t b = 0; b < n_layers && rc == 0; b++) {
            int64_t lo = end[b], hi = b + 1 < n_layers ? end[b + 1] : nsched;
            if (hi > lo)
                rc = run_layer(&g, &s, b, by_layer + lo, hi - lo, source_run,
                               tgt_ptr, tgt);
        }
    }
    free(sched); free(end); free(by_layer);
    free(s.act); free(s.fr); free(s.nx); free(s.unv); free(s.cand);
    return rc;
}

/* The Pcons detour batch's escape tables, read off the stacked state
 * repro_weighted_levels left behind (engine/base.py: escape_table is
 * the spec).  Path b occupies path[path_ptr[b] .. path_ptr[b+1]) as
 * [u_0, ..., u_k = v] and was searched in layer b (global ids
 * b * n_base + x) from v with u_0 .. u_{k-1} banned.  For each j < k,
 * u_j's edges (u_j, w, e) are scanned in CSR order - the adjacency
 * order - skipping the tree edge (u_{k-1}, v) and every w the search
 * left unsettled (the banned path vertices among them); the smallest
 * (hop(w) + 1, pert(w) + pert_edge[e]) wins, the first among equals
 * (strict <).  Comparing the pair is comparing the reference's
 * composite W(e) + dist(w): u_j, w, ..., v is a simple path, so the
 * plan's bound keeps its perturbation sum below the hop bits.  The
 * winner lands at u_j's position in esc_hop/esc_w/esc_eid; a u_j with
 * no candidate, and each path's last position, get esc_hop = -1. */
int64_t repro_detour_escapes(
    int64_t n_base,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const int64_t *pert_edge,
    int64_t n_paths,
    const int64_t *path_ptr,
    const int64_t *path,
    const uint8_t *settled,
    const int64_t *hop,
    const int64_t *pert,
    int64_t *esc_hop,
    int64_t *esc_w,
    int64_t *esc_eid)
{
    for (int64_t b = 0; b < n_paths; b++) {
        int64_t first = path_ptr[b], last = path_ptr[b + 1] - 1;
        int64_t off = b * n_base;
        int64_t v = path[last];
        esc_hop[last] = esc_w[last] = esc_eid[last] = -1;
        for (int64_t i = first; i < last; i++) {
            int64_t bh = -1, bp = 0, bw = -1, be = -1;
            int64_t u = path[i];
            for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
                int64_t w = indices[k];
                if (w == v && i == last - 1)
                    continue;  /* the tree edge (u_{k-1}, v) */
                int64_t gw = off + w;
                if (!settled[gw])
                    continue;
                int64_t h = hop[gw] + 1;
                int64_t p = pert[gw] + pert_edge[edge_ids[k]];
                if (bh < 0 || h < bh || (h == bh && p < bp)) {
                    bh = h;
                    bp = p;
                    bw = w;
                    be = edge_ids[k];
                }
            }
            esc_hop[i] = bh;
            esc_w[i] = bw;
            esc_eid[i] = be;
        }
    }
    return 0;
}

/* Phase S1's existence query (InterferenceIndex.exists_live_partner),
 * batched: for each query pair p, is there an allowed partner q != p
 * that shares an internal detour vertex with p, has a different
 * terminal, whose failing edge is not ancestor-related to p's (the
 * paper's !~), and - with require_pi - that p pi-intersects?
 *
 * Pairs are dense positions 0..num_pairs-1.  int_ptr/int_verts list
 * each pair's internal detour vertices (CSR); terminal and child are
 * per pair; tin and tout are the tree's Euler intervals (-1 where
 * unreached, so no interval test holds for an unreached vertex).  The
 * vertex -> allowed pairs buckets are counting-sorted here, per call,
 * in pair order, so partners are scanned in the spec's order (its
 * by_vertex lists) and tested once per query, with the same early
 * exit.  Scratch memory is O(num_vertices + pairs + detour vertices).
 *
 * pi-intersection needs no LCA: Pcons's detour Dijkstra bans
 * pi(s, v) \ {v}, so no internal detour vertex z of p lies on pi(s, v),
 * and z on pi(s, t) is then strictly below LCA(v, t).  "A detour
 * vertex on pi(LCA(v, t), t) \ {LCA}" is thus "some internal z with
 * tin[z] <= tin[t] < tout[z]"; the detour's endpoints, d(P) and v, are
 * common ancestors of v and t whenever they lie on pi(s, t), so they
 * never count.
 *
 * out[i] (uint8) receives query i's answer.  Returns 0, or -1 on
 * allocation failure (the caller falls back to the spec). */
int64_t repro_exists_live_partner(
    int64_t num_vertices,
    int64_t num_pairs,
    const int64_t *int_ptr,
    const int64_t *int_verts,
    const int64_t *terminal,
    const int64_t *child,
    const int64_t *tin,
    const int64_t *tout,
    int64_t num_queries,
    const int64_t *queries,
    const uint8_t *allowed,
    int64_t require_pi,
    uint8_t *out)
{
    if (num_queries <= 0)
        return 0;
    int64_t total = int_ptr[num_pairs];
    int64_t *vtx_ptr = calloc((size_t)(num_vertices + 1), sizeof(int64_t));
    int64_t *fill = malloc((size_t)(num_vertices + 1) * sizeof(int64_t));
    int64_t *vtx_pairs = malloc((size_t)(total > 0 ? total : 1) * sizeof(int64_t));
    int64_t *seen = malloc((size_t)(num_pairs > 0 ? num_pairs : 1) * sizeof(int64_t));
    if (!vtx_ptr || !fill || !vtx_pairs || !seen) {
        free(vtx_ptr); free(fill); free(vtx_pairs); free(seen);
        return -1;
    }
    for (int64_t q = 0; q < num_pairs; q++) {
        seen[q] = -1;  /* seen[q] == i: partner q already tested for query i */
        if (!allowed[q]) continue;
        for (int64_t k = int_ptr[q]; k < int_ptr[q + 1]; k++)
            vtx_ptr[int_verts[k] + 1]++;
    }
    for (int64_t z = 0; z < num_vertices; z++)
        vtx_ptr[z + 1] += vtx_ptr[z];
    memcpy(fill, vtx_ptr, (size_t)(num_vertices + 1) * sizeof(int64_t));
    for (int64_t q = 0; q < num_pairs; q++) {
        if (!allowed[q]) continue;
        for (int64_t k = int_ptr[q]; k < int_ptr[q + 1]; k++)
            vtx_pairs[fill[int_verts[k]]++] = q;
    }

    for (int64_t i = 0; i < num_queries; i++) {
        int64_t p = queries[i];
        int64_t v = terminal[p], b = child[p];
        int64_t tb = tin[b], ob = tout[b];
        uint8_t found = 0;
        for (int64_t k = int_ptr[p]; k < int_ptr[p + 1] && !found; k++) {
            int64_t z = int_verts[k];
            for (int64_t j = vtx_ptr[z]; j < vtx_ptr[z + 1]; j++) {
                int64_t q = vtx_pairs[j];
                if (q == p || seen[q] == i) continue;
                seen[q] = i;
                int64_t t = terminal[q];
                if (t == v) continue;
                int64_t d = child[q];
                int64_t td = tin[d], od = tout[d];
                if ((tb <= td && td < ob) || (td <= tb && tb < od))
                    continue;  /* e ~ e': one child is the other's ancestor */
                if (require_pi) {
                    int64_t tt = tin[t];
                    int64_t hit = 0;
                    for (int64_t kk = int_ptr[p]; kk < int_ptr[p + 1]; kk++) {
                        int64_t zz = int_verts[kk];
                        if (tin[zz] <= tt && tt < tout[zz]) {
                            hit = 1;
                            break;
                        }
                    }
                    if (!hit) continue;
                }
                found = 1;
                break;
            }
        }
        out[i] = found;
    }
    free(vtx_ptr); free(fill); free(vtx_pairs); free(seen);
    return 0;
}
