/* Flat-loop C implementations of the traversal hot paths: the sweep
 * hot pair (ordered BFS + Euler-interval subtree recompute), the
 * weighted (hops, pert_sum) level relaxation, and Phase S1's batched
 * interference existence query.
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
 * - The order-dependent tie event - a candidate equal to the target's
 *   current running minimum through a different edge - is detected
 *   exactly (not over-approximated), and so are seed ties and invalid
 *   seeds: the kernel bails out and the caller hands the call back to
 *   the reference Dijkstra, which raises its own error with its own
 *   message.  Tie and seed-error semantics live only there.
 * - The target stop rule expands exactly the vertices the reference
 *   expands before its first pop at hop R (see repro_weighted_levels),
 *   in the same order, so both meet the same ties.
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

/* weighted_levels equivalent: seed intake plus the level-synchronous
 * two-array (hops, pert_sum) relaxation over n_total = B * n_base
 * stacked layers (pass n_total == n_base for a plain single-layer
 * run).  Seeds arrive as raw columns in the reference's arrival order
 * and go through the reference's sequential running-min intake: a
 * strictly smaller (hop, pert) label overwrites, equality through a
 * different entry edge is the reference's seed tie, and a seed outside
 * the allowed set - or out of array range entirely - is refused before
 * it touches anything; both bail (see below).  The surviving
 * per-vertex labels, sorted by (hop, id), form the drain schedule:
 * each level merges due schedule entries with the carried relaxation
 * frontier, drops entries whose label moved on (settled, or hop_t no
 * longer equal to the level - the bucket drain's filter), settles the
 * survivors in (pert, id) order, and streams their out-edges through
 * the ban/allow filters.  banned_eid (optional, length B) drops layer
 * b's one banned edge id, exactly like the stacked expander.
 *
 * Targets holding a tentative next-level label (seed incumbents) keep
 * the reference's running-min semantics: strict improvement overwrites
 * (first arrival among equals wins and is never displaced), equality
 * through a different edge is the reference's tie event.
 *
 * The stop rule (tgt_ptr and tgt, both NULL for none; source-seeded
 * hop-0 runs only): layer b's targets are the global ids
 * tgt[tgt_ptr[b] .. tgt_ptr[b+1]).  In an unseeded run a label's hop is
 * fixed when it is first set, so when a level starts with every target
 * of a layer labeled, that level is the layer's radius R - the largest
 * target hop - and the layer stops: its level-R entries are marked
 * settled (their labels are final once level R - 1 has expanded) but
 * neither sorted nor expanded, and nothing beyond R is ever labeled.
 * That is the reference's stop at its first pop at hop R.  A negative
 * target id never labels, so its layer runs to completion, as does a
 * layer with an unreachable target.
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
    const int64_t *banned_eid,
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
    /* Targets come only with sources, so n_base >= 1 whenever they do. */
    int64_t n_layers = tgt_ptr ? n_total / n_base : 0;
    wl_entry *sched = malloc((size_t)nseeds * sizeof(wl_entry));
    wl_entry *act = malloc((size_t)n_total * sizeof(wl_entry));
    int64_t *fr = malloc((size_t)n_total * sizeof(int64_t));
    int64_t *nx = malloc((size_t)n_total * sizeof(int64_t));
    /* Stop rule state: per layer, the first target not yet seen
     * labeled, and whether the layer has stopped. */
    int64_t *tcur = NULL;
    uint8_t *stopped = NULL;
    if (tgt_ptr) {
        tcur = malloc((size_t)n_layers * sizeof(int64_t));
        stopped = calloc((size_t)n_layers, sizeof(uint8_t));
    }
    if (!sched || !act || !fr || !nx || (tgt_ptr && (!tcur || !stopped))) {
        free(sched); free(act); free(fr); free(nx); free(tcur); free(stopped);
        return -1;
    }
    if (tgt_ptr)
        memcpy(tcur, tgt_ptr, (size_t)n_layers * sizeof(int64_t));
    int64_t rc = 0;

    /* Intake.  First-touch detection rides on the entry contract that
     * hop_t is -1 at every position this run may label. */
    int64_t nsched = 0;
    for (int64_t j = 0; j < nseeds; j++) {
        int64_t v = seed_vertex[j];
        if (v < 0 || v >= n_total || (allowed_ok && !allowed_ok[v])) {
            rc = 2;
            break;
        }
        int64_t h0 = seed_hop[j], p0 = seed_pert[j];
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
        free(sched); free(act); free(fr); free(nx); free(tcur); free(stopped);
        return rc;
    }
    for (int64_t j = 0; j < nsched; j++)
        sched[j].pert = hop_t[sched[j].id];  /* final label's hop */
    qsort(sched, (size_t)nsched, sizeof(wl_entry), cmp_wl_entry);

    int64_t sp = 0;          /* next unconsumed schedule entry */
    int64_t flen = 0;        /* carried relaxation frontier size ... */
    int64_t flevel = 0;      /* ... and its level */
    while (sp < nsched || flen > 0) {
        int64_t lvl;
        if (flen > 0)
            lvl = flevel;
        else
            lvl = sched[sp].pert;
        if (sp < nsched && sched[sp].pert < lvl)
            lvl = sched[sp].pert;
        if (tgt_ptr) {
            for (int64_t b = 0; b < n_layers; b++) {
                int64_t c = tcur[b];
                while (c < tgt_ptr[b + 1] && tgt[c] >= 0 && hop_t[tgt[c]] != -1)
                    c++;
                tcur[b] = c;
                if (c == tgt_ptr[b + 1])
                    stopped[b] = 1;
            }
        }
        int64_t alen = 0;
        while (sp < nsched && sched[sp].pert == lvl) {
            int64_t v = sched[sp++].id;
            if (!settled[v] && hop_t[v] == lvl) {
                settled[v] = 1;
                if (stopped && stopped[v / n_base])
                    continue;  /* at the layer's radius: not expanded */
                act[alen].pert = pert_t[v];
                act[alen].id = v;
                alen++;
            }
        }
        if (flen > 0 && flevel == lvl) {
            for (int64_t j = 0; j < flen; j++) {
                int64_t v = fr[j];
                if (!settled[v] && hop_t[v] == lvl) {
                    settled[v] = 1;
                    if (stopped && stopped[v / n_base])
                        continue;
                    act[alen].pert = pert_t[v];
                    act[alen].id = v;
                    alen++;
                }
            }
            flen = 0;
        }
        qsort(act, (size_t)alen, sizeof(wl_entry), cmp_wl_entry);
        int64_t nlen = 0;
        for (int64_t j = 0; j < alen && rc == 0; j++) {
            int64_t v = act[j].id;
            int64_t local = v % n_base;
            int64_t off = v - local;
            int64_t ban = banned_eid ? banned_eid[v / n_base] : -1;
            int64_t pv = pert_t[v];
            for (int64_t k = indptr[local]; k < indptr[local + 1]; k++) {
                int64_t e = edge_ids[k];
                if (e == ban) continue;
                if (edge_ok && !edge_ok[e]) continue;
                int64_t w = indices[k] + off;
                if (settled[w]) continue;
                if (vertex_ok && !vertex_ok[w]) continue;
                if (allowed_ok && !allowed_ok[w]) continue;
                int64_t c = pv + pert_edge[e];
                if (hop_t[w] == lvl + 1) {
                    /* Running next-level label (a seed incumbent or an
                     * earlier arrival this level - both won every
                     * comparison so far). */
                    if (c < pert_t[w]) {
                        pert_t[w] = c;
                        parent[w] = v;
                        parent_eid[w] = e;
                    } else if (c == pert_t[w] && parent_eid[w] != e) {
                        rc = 1;
                        break;
                    }
                } else {
                    /* First touch this level; a stale label from a
                     * higher hop (never settled, never comparable) is
                     * plainly overwritten, like any unlabeled target. */
                    hop_t[w] = lvl + 1;
                    pert_t[w] = c;
                    parent[w] = v;
                    parent_eid[w] = e;
                    nx[nlen++] = w;
                }
            }
        }
        if (rc != 0)
            break;
        int64_t *tmp = fr; fr = nx; nx = tmp;
        flen = nlen;
        flevel = lvl + 1;
    }
    free(sched); free(act); free(fr); free(nx); free(tcur); free(stopped);
    return rc;
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
