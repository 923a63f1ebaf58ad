/* Flat-loop C implementations of the traversal hot paths: the sweep
 * hot pair (ordered BFS + Euler-interval subtree recompute), the
 * weighted (hops, pert_sum) level relaxation of source runs, its seeded
 * twin that fills the weighted failure sweep's rows, the Pcons detour
 * batch (one search per path on that relaxation, read as its escape
 * table), and Phase S1's batched interference existence query.
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
 * - The relaxation serves source runs only (every seed at hop 0:
 *   build_spt and csr shortest_paths through repro_weighted_levels, the
 *   Pcons detour searches through repro_detour_batch).  It chooses per
 *   level between that top-down step and a bottom-up one, in which
 *   each unlabeled vertex gathers its
 *   candidates from its own edges and replays them in the settle order
 *   top-down would deliver them in, through the same running minimum -
 *   so it meets the same labels and the same ties.  The choice
 *   compares the half-edges each direction would scan, with a constant
 *   measured on dense and sparse detour batches.
 * - The order-dependent tie event - a candidate equal to the target's
 *   current running minimum through a different edge - is detected
 *   exactly (not over-approximated), and so are seed ties and invalid
 *   seeds: the kernel bails out and the caller hands the call back to
 *   the reference Dijkstra, which raises its own error with its own
 *   message.  Tie and seed-error semantics live only there.
 * - The stop rule (targets' radius and hop cap) expands exactly the
 *   vertices the reference expands before its first pop at hop R (see
 *   repro_weighted_levels), in the same order, so both meet the same
 *   ties.
 *
 * Bit-identity with repro/engine/base.py:
 *
 * - The weighted sweep (repro_weighted_sweep) replays
 *   replacement_failure per failed edge: the same crossing-edge seeds
 *   in the same order through the same intake, then the top-down
 *   relaxation above, restricted to the failed subtree's Euler
 *   interval.  Seed labels at higher hops are what keep it top-down.
 *   It detects the same seed and relaxation ties and hands the
 *   remaining failures back, from the one that met a tie.
 * - The detour batch (repro_detour_batch) replays reference_escapes per
 *   path: the same bans, targets and cap through the relaxation above,
 *   then escape_table over the search's (settled, hop, pert) scratch -
 *   the same candidates in the same adjacency order under the same
 *   strict comparison, on the (hops, pert) pair instead of the big-int
 *   composite.
 *
 * Bit-identity under the exact scheme (pert(e) = 2**e), which no int64
 * holds: the three weighted kernels take a NULL pert_edge and compare
 * same-hop candidates by the path-max order instead (path_lighter).  A
 * perturbation sum is then the set of its path's edge ids, and of two
 * sums the larger holds the largest id of their symmetric difference.
 * Two candidates P(u1) + e1 and P(u2) + e2 for one vertex differ only
 * below a = LCA(u1, u2) in the traversal's own tree: neither e1 nor e2
 * lies on a tree path, since they lead to a vertex nothing has settled.
 * So the lighter one is the side whose largest edge id below a (entry
 * edge included) is smaller, and the two are never equal.  The climb
 * decides every comparison the reference's big-int heap makes, with no
 * perturbation sums; no two candidates tie, so every label is the
 * unique minimum whatever order the candidates arrive in, and the
 * levels need no (pert, id) settle sort.  The caller rebuilds the
 * big-int sums where a result needs them, from the parents.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define UNREACHABLE (-1)

/* Queue BFS; the queue array doubles as the discovery order.  Any of
 * edge_ok (uint8 per edge id), parent and parent_eid may be NULL.  dist
 * and order must be length n; dist is fully initialized (unreached =
 * -1), order only up to the return value.  Returns the number of
 * visited vertices. */
static int64_t bfs_core(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    int64_t source,
    const uint8_t *edge_ok,
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
    int64_t *dist,
    int64_t *parent,
    int64_t *parent_eid,
    int64_t *order)
{
    return bfs_core(n, indptr, indices, edge_ids, source,
                    edge_ok, dist, parent, parent_eid, order);
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
                               edge_ok, dist, parent, parent_eid, order);
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
 * order. */
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
 * search's level, or one vertex's bottom-up candidates, is often a few
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

/* The direction rule: a search takes the bottom-up step at a level when
 * BU_COST times the degree sum of its unlabeled allowed vertices is
 * below the degree sum of the level's vertices, which top-down would
 * expand (see repro_weighted_levels for the measurement behind the
 * constant). */
#define BU_COST 1

/* The tree the exact scheme's comparisons climb: parents par/peid,
 * except at the vertices whose tin lies in [lo, lo + size) - a failed
 * subtree's row, size 0 for none - which read rpar/rpeid at tin - lo.
 * Roots have parent -1. */
typedef struct {
    const int64_t *par;
    const int64_t *peid;
    const int64_t *tin;
    int64_t lo;
    int64_t size;
    const int64_t *rpar;
    const int64_t *rpeid;
} path_tree;

/* One step of a climb: *u moves to its parent and *m takes the edge
 * between them when it is larger.  Returns 0, moving nothing, at a
 * root. */
static int climb(const path_tree *t, int64_t *u, int64_t *m)
{
    int64_t x = *u, i = t->size ? t->tin[x] - t->lo : -1, p, e;
    if (0 <= i && i < t->size) {
        p = t->rpar[i];
        e = t->rpeid[i];
    } else {
        p = t->par[x];
        e = t->peid[x];
    }
    if (p < 0)
        return 0;
    if (e > *m)
        *m = e;
    *u = p;
    return 1;
}

/* The exact scheme's order (see the header): whether P(u1) + e1 is
 * lighter than P(u2) + e2, for u1 and u2 at one hop of the tree t.  The
 * two climb in lockstep to their common ancestor, each side keeping its
 * largest edge id, entry edge included; the side with the smaller one
 * is lighter.  Each comparison costs the distance to the ancestor. */
static int path_lighter(const path_tree *t, int64_t u1, int64_t e1,
                        int64_t u2, int64_t e2)
{
    while (u1 != u2 && climb(t, &u1, &e1) && climb(t, &u2, &e2))
        ;
    return e1 < e2;
}

/* What one relaxation reads and writes, n entries per state array.
 * pert_edge NULL selects the exact scheme's order, over tree = the
 * relaxation's own parents. */
typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const int64_t *edge_ids;
    const int64_t *pert_edge;
    const uint8_t *edge_ok;
    const uint8_t *vertex_ok;
    uint8_t *settled;
    int64_t *hop_t;
    int64_t *pert_t;
    int64_t *parent;
    int64_t *parent_eid;
    path_tree tree;
} wl_graph;

/* A relaxation's scratch, n entries each: a level's entries, the
 * frontier pair, the unvisited list and one vertex's bottom-up
 * candidates. */
typedef struct {
    wl_entry *act;
    int64_t *fr;
    int64_t *nx;
    int64_t *unv;
    bu_cand *cand;
} wl_scratch;

/* Allocates s for n vertices; returns 0, freeing what it got, when one
 * allocation fails. */
static int wl_scratch_alloc(wl_scratch *s, int64_t n)
{
    size_t width = (size_t)(n > 0 ? n : 1);
    s->act = malloc(width * sizeof(wl_entry));
    s->fr = malloc(width * sizeof(int64_t));
    s->nx = malloc(width * sizeof(int64_t));
    s->unv = malloc(width * sizeof(int64_t));
    s->cand = malloc(width * sizeof(bu_cand));
    if (s->act && s->fr && s->nx && s->unv && s->cand)
        return 1;
    free(s->act); free(s->fr); free(s->nx); free(s->unv); free(s->cand);
    return 0;
}

static void wl_scratch_free(wl_scratch *s)
{
    free(s->act); free(s->fr); free(s->nx); free(s->unv); free(s->cand);
}

/* The top-down step: the level's vertices act[0 .. alen),
 * in (pert, id) order, stream their out-edges in CSR order through the
 * filters.  A target already labeled at the next level (an earlier
 * arrival) keeps the running minimum: strict improvement overwrites,
 * so the first arrival among equals wins, and equality through a
 * different edge is the reference's tie event.  Any other unsettled
 * target is unlabeled - a label is first set one level past its
 * parent's and settles at its own level - so it takes the candidate,
 * joins nx[*nlen ..) and leaves *udeg.  Under the exact order the
 * running minimum is path_lighter's and no pert is kept.  Returns 1 on
 * the tie event, else 0. */
static int64_t top_down_step(
    const wl_graph *g, int64_t lvl,
    const wl_entry *act, int64_t alen, int64_t *nx, int64_t *nlen,
    int64_t *udeg)
{
    const int64_t *indptr = g->indptr;
    const int exact = g->pert_edge == NULL;
    for (int64_t j = 0; j < alen; j++) {
        int64_t v = act[j].id;
        int64_t pv = g->pert_t[v];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t e = g->edge_ids[k];
            if (g->edge_ok && !g->edge_ok[e]) continue;
            int64_t w = g->indices[k];
            if (g->settled[w]) continue;
            if (g->vertex_ok && !g->vertex_ok[w]) continue;
            if (g->hop_t[w] == lvl + 1) {
                if (exact) {
                    if (path_lighter(&g->tree, v, e, g->parent[w],
                                     g->parent_eid[w])) {
                        g->parent[w] = v;
                        g->parent_eid[w] = e;
                    }
                    continue;
                }
                int64_t c = pv + g->pert_edge[e];
                if (c < g->pert_t[w]) {
                    g->pert_t[w] = c;
                    g->parent[w] = v;
                    g->parent_eid[w] = e;
                } else if (c == g->pert_t[w] && g->parent_eid[w] != e) {
                    return 1;
                }
            } else {
                *udeg -= indptr[w + 1] - indptr[w];
                g->hop_t[w] = lvl + 1;
                g->pert_t[w] = exact ? 0 : pv + g->pert_edge[e];
                g->parent[w] = v;
                g->parent_eid[w] = e;
                nx[(*nlen)++] = w;
            }
        }
    }
    return 0;
}

/* The bottom-up step: each vertex of the unvisited list
 * that is still unlabeled gathers, through the top-down filters, its
 * neighbours settled at this level, sorts them into settle order and
 * replays them through the same running minimum and tie rule; under the
 * exact order it keeps path_lighter's minimum, which needs no order.
 * Labeled vertices join nx[*nlen ..), leave *udeg and drop off the
 * list.  Returns 1 on the tie event, else 0. */
static int64_t bottom_up_step(
    const wl_graph *g, int64_t lvl,
    int64_t *unv, int64_t *ucnt, bu_cand *cand, int64_t *nx,
    int64_t *nlen, int64_t *udeg)
{
    const int64_t *indptr = g->indptr;
    int64_t keep = 0;
    for (int64_t i = 0; i < *ucnt; i++) {
        int64_t w = unv[i];
        if (g->hop_t[w] != -1)
            continue;  /* labeled top-down at an earlier level */
        int64_t nc = 0;
        for (int64_t k = indptr[w]; k < indptr[w + 1]; k++) {
            int64_t u = g->indices[k];
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
        int64_t best = 0, par = cand[0].key.id, pe = cand[0].eid;
        if (g->pert_edge == NULL) {
            for (int64_t c = 1; c < nc; c++) {
                if (path_lighter(&g->tree, cand[c].key.id, cand[c].eid,
                                 par, pe)) {
                    par = cand[c].key.id;
                    pe = cand[c].eid;
                }
            }
        } else {
            sort_keyed(cand, nc, sizeof(bu_cand));
            best = cand[0].key.pert + g->pert_edge[cand[0].eid];
            par = cand[0].key.id;
            pe = cand[0].eid;
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
        }
        g->hop_t[w] = lvl + 1;
        g->pert_t[w] = best;
        g->parent[w] = par;
        g->parent_eid[w] = pe;
        nx[(*nlen)++] = w;
        *udeg -= indptr[w + 1] - indptr[w];
    }
    *ucnt = keep;
    return 0;
}

/* One relaxation, from its sources src[0 .. nsrc) (the vertices the
 * intake labeled at hop 0) to the end of its search, each level taking
 * the cheaper direction.  tgt[0 .. ntgt) and cap carry the stop rule
 * (ntgt < 0: no targets, cap < 0: no cap; see repro_weighted_levels). */
static int64_t run_layer(
    const wl_graph *g, const wl_scratch *s,
    const int64_t *src, int64_t nsrc,
    const int64_t *tgt, int64_t ntgt, int64_t cap)
{
    const int64_t *indptr = g->indptr;
    int64_t *fr = s->fr, *nx = s->nx;

    /* The unvisited list: the unlabeled allowed vertices, and udeg, the
     * degree sum a bottom-up step would scan. */
    int64_t ucnt = 0, udeg = 0;
    for (int64_t w = 0; w < g->n; w++) {
        if (g->hop_t[w] != -1) continue;
        if (g->vertex_ok && !g->vertex_ok[w]) continue;
        s->unv[ucnt++] = w;
        udeg += indptr[w + 1] - indptr[w];
    }

    /* tgt[t .. ntgt): the targets not yet seen labeled. */
    int64_t t = 0;
    memcpy(fr, src, (size_t)nsrc * sizeof(int64_t));
    int64_t flen = nsrc;
    for (int64_t lvl = 0; flen > 0; lvl++) {
        int64_t stop = cap >= 0 && lvl >= cap;
        if (ntgt >= 0 && !stop) {
            while (t < ntgt && g->hop_t[tgt[t]] != -1)
                t++;
            stop = t == ntgt;
        }
        /* Settle the level: its labels are final once the level before
         * has expanded.  fdeg sums the degrees top-down would scan. */
        int64_t alen = 0, fdeg = 0;
        for (int64_t j = 0; j < flen; j++) {
            int64_t v = fr[j];
            g->settled[v] = 1;
            s->act[alen].pert = g->pert_t[v];
            s->act[alen++].id = v;
            fdeg += indptr[v + 1] - indptr[v];
        }
        if (stop)
            return 0;  /* lvl is the radius: settled, not expanded */
        int64_t nlen = 0, rc;
        if (BU_COST * udeg < fdeg) {
            rc = bottom_up_step(g, lvl, s->unv, &ucnt, s->cand, nx, &nlen,
                                &udeg);
        } else {
            if (g->pert_edge)  /* the exact order needs no settle order */
                sort_keyed(s->act, alen, sizeof(wl_entry));
            rc = top_down_step(g, lvl, s->act, alen, nx, &nlen, &udeg);
        }
        if (rc != 0)
            return rc;
        int64_t *tmp = fr; fr = nx; nx = tmp;
        flen = nlen;
    }
    return 0;
}

/* weighted_levels equivalent for one source run - every seed at hop 0:
 * build_spt and csr shortest_paths - as the level-synchronous two-array
 * (hops, pert_sum) relaxation over n vertices; the Pcons detour
 * searches run the same relaxation through repro_detour_batch.  Seeds
 * arrive as raw columns in the reference's arrival order and go through
 * its sequential running-min intake: a smaller pert overwrites, and
 * equality through a different entry edge is the reference's seed tie.
 * A seed out of array range, or off hop 0, is refused before it touches
 * anything; both bail (see below).  The seeded runs of the weighted
 * sweep run in repro_weighted_sweep.  Entry contract: hop_t is -1 and
 * settled 0 at every position.
 *
 * Each level settles its vertices and expands them in one of two
 * directions:
 *
 * - top-down: the level's vertices, sorted by (pert, id) - the
 *   reference heap's pop order - relax their out-edges in CSR order,
 *   so candidates arrive per target in exactly the reference's arrival
 *   order, and a running minimum per target reproduces the reference's
 *   order-dependent state;
 * - bottom-up: each unlabeled allowed vertex scans its own edges for
 *   neighbours settled at this level, through the same filters
 *   (edge_ok, and - on the vertex itself - vertex_ok), sorts them by
 *   the neighbours' (pert, id) and replays them through the same
 *   running minimum and tie rule.  The graph is simple, so each
 *   neighbour offers one candidate, and top-down would deliver the
 *   vertex exactly these candidates in exactly this order.  The replay
 *   keeps that order, not the adjacency order, because the tie event
 *   depends on it: arrivals (5, 3, 5) never tie, (5, 5, 3) do.  With
 *   every seed at hop 0, an unlabeled vertex is one no level has
 *   reached yet, which is what makes the gather complete.
 *
 * A search takes bottom-up at a level when BU_COST times the degree sum
 * of its unlabeled allowed vertices (its unvisited list, which shrinks
 * as they are labeled) is below the degree sum of the level's vertices
 * - the direction-optimizing BFS of Beamer, Asanovic and Patterson
 * (SC'12), without its early exit, since the running minimum needs
 * every candidate.  A search that reaches most of a dense graph by
 * its second-to-last level - uncapped searches from G(700, 62/699)'s
 * T0 paths reached ~633 level-2 vertices (~39k half-edges) to label
 * ~1.4 at level 3 - takes bottom-up there and scans the few unvisited
 * vertices instead.  The constant was measured on those uncapped
 * searches (the 699 T0 paths of that input) and on bench_replacement's
 * sparse ones (1,200 deep T0 paths of G(1500, 12/1499) and G(5000,
 * 20/4999)): on the dense input factors 1/4 to 4 read the same (its
 * level-2 steps favoured bottom-up ~150 to 1); on G(5000, 20/4999)
 * factors 1/4 to 2 read the same and 4 and 8 took 1.4x and 1.9x
 * longer, and on G(1500, 12/1499) 2 took 1.2x longer than 1.  Pcons
 * caps its searches at the hop its pairs need (below), so on G(700,
 * 62/699) they stop at level 1 or 2 and stay top-down; the
 * bottom-up step serves the searches that run past the bulk of a dense
 * graph, such as build_spt's full run on that input.  Labels, parents,
 * radii and hand-backs are the same whichever direction a level takes.
 *
 * The stop rule: the run stops at its radius R, the smaller of two
 * bounds, either of which may be absent.  The targets tgt[0 .. ntgt)
 * (ntgt < 0: none) bound it at their largest hop: a label's hop is
 * fixed when it is first set, so the first level to start with every
 * target labeled is that hop.  The cap (< 0: none) bounds it at cap
 * levels.  At level R the run stops: its level-R entries are marked
 * settled (their labels are final once level R - 1 has expanded) but
 * neither sorted nor expanded, and nothing beyond R is ever labeled.
 * That is the reference's stop at its first pop at hop R, and it
 * expands exactly the vertices the reference expands before that pop,
 * so both meet the same ties.  A run with an unreachable target and no
 * cap runs to completion.
 *
 * A NULL pert_edge selects the exact scheme's order: every comparison
 * is path_lighter's climb over the relaxation's own parents, pert_t
 * stays 0 past the intake, and the levels take no settle sort (see the
 * header).  No relaxation tie exists under it.
 *
 * Returns 0 on completion; on any bail-out the caller hands the call
 * back to the reference Dijkstra, which decides the outcome: 1 =
 * relaxation tie, 2 = seed tie or refused seed, -1 = allocation
 * failure.  A bail may leave the state mid-run. */
int64_t repro_weighted_levels(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const int64_t *pert_edge,
    const uint8_t *edge_ok,
    const uint8_t *vertex_ok,
    int64_t ntgt,
    const int64_t *tgt,
    int64_t cap,
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
    int64_t *src = malloc((size_t)nseeds * sizeof(int64_t));
    if (!src)
        return -1;
    int64_t nsrc = 0, rc = 0;
    for (int64_t j = 0; j < nseeds; j++) {
        int64_t v = seed_vertex[j];
        if (v < 0 || v >= n || seed_hop[j] != 0) {
            rc = 2;
            break;
        }
        int64_t p0 = seed_pert[j];
        if (hop_t[v] == -1 || p0 < pert_t[v]) {
            if (hop_t[v] == -1)
                src[nsrc++] = v;
            hop_t[v] = 0;
            pert_t[v] = p0;
            parent[v] = seed_parent[j];
            parent_eid[v] = seed_parent_eid[j];
        } else if (p0 == pert_t[v] && seed_parent_eid[j] != parent_eid[v]) {
            rc = 2;  /* the reference's seed tie */
            break;
        }
    }
    wl_scratch s;
    if (rc == 0 && !wl_scratch_alloc(&s, n))
        rc = -1;
    if (rc == 0) {
        const wl_graph g = {
            n, indptr, indices, edge_ids, pert_edge, edge_ok, vertex_ok,
            settled, hop_t, pert_t, parent, parent_eid,
            {parent, parent_eid, NULL, 0, 0, NULL, NULL},
        };
        rc = run_layer(&g, &s, src, nsrc, tgt, ntgt, cap);
        wl_scratch_free(&s);
    }
    free(src);
    return rc;
}

/* Scratch of the weighted sweep, sized by its largest subtree: the
 * seed schedule, a level's entries, the frontier pair, and the settled
 * flags, all indexed like a row. */
typedef struct {
    wl_entry *sched;
    wl_entry *act;
    int64_t *fr;
    int64_t *nx;
    uint8_t *settled;
} ws_scratch;

/* One failed tree edge f of the weighted sweep, whose deeper endpoint's
 * Euler interval is [lo, hi): its row (hop, pert, par, peid: entry i
 * is the vertex at preorder position lo + i).  Under the exact order
 * (pert_edge NULL) comparisons climb t0: T0 outside the interval, the
 * row inside it, and pert stays 0.  Returns 1 on a seed tie or a
 * relaxation tie, else 0 (see repro_weighted_sweep). */
static int64_t sweep_one(
    const int64_t *indptr, const int64_t *indices, const int64_t *edge_ids,
    const int64_t *pert_edge, const int64_t *hop0, const int64_t *pert0,
    const int64_t *tin, const int64_t *preorder, int64_t f, int64_t lo,
    int64_t hi, const ws_scratch *s, path_tree t0, int64_t *hop,
    int64_t *pert, int64_t *par, int64_t *peid)
{
    const int64_t size = hi - lo;
    const int64_t *sub = preorder + lo;
    const int exact = pert_edge == NULL;
    t0.lo = lo;
    t0.size = size;
    t0.rpar = par;
    t0.rpeid = peid;
    for (int64_t i = 0; i < size; i++) {
        hop[i] = par[i] = peid[i] = -1;
        pert[i] = 0;
        s->settled[i] = 0;
    }

    /* Intake: the crossing edges (v, a, e), e != f, a outside the
     * interval and reachable, in preorder and then CSR order - the
     * reference's seed order, in which each vertex's seeds are
     * contiguous - through its running minimum. */
    int64_t nsched = 0;
    for (int64_t i = 0; i < size; i++) {
        int64_t v = sub[i];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t e = edge_ids[k];
            if (e == f) continue;
            int64_t a = indices[k];
            if (tin[a] >= lo && tin[a] < hi) continue;  /* internal edge */
            if (hop0[a] < 0) continue;                  /* dead outer end */
            int64_t h = hop0[a] + 1;
            if (exact) {
                if (hop[i] == -1 || h < hop[i]
                    || (h == hop[i]
                        && path_lighter(&t0, a, e, par[i], peid[i]))) {
                    hop[i] = h;
                    par[i] = a;
                    peid[i] = e;
                }
                continue;
            }
            int64_t p = pert0[a] + pert_edge[e];
            if (hop[i] == -1 || h < hop[i] || (h == hop[i] && p < pert[i])) {
                hop[i] = h;
                pert[i] = p;
                par[i] = a;
                peid[i] = e;
            } else if (h == hop[i] && p == pert[i] && e != peid[i]) {
                return 1;  /* the reference's seed tie */
            }
        }
        if (hop[i] != -1) {
            s->sched[nsched].pert = hop[i];  /* (hop, vertex) order */
            s->sched[nsched].id = v;
            nsched++;
        }
    }
    sort_keyed(s->sched, nsched, sizeof(wl_entry));

    /* Levels in increasing hop: each settles its due seed labels and the
     * carried frontier, then relaxes them top-down in (pert, vertex)
     * order.  A label at the next level - a seed's, or an earlier
     * arrival's - keeps the running minimum; a seed label at a higher
     * hop is stale and is overwritten, as the reference's heap would
     * never pop it, and its schedule entry is skipped.  The frontier
     * holds only vertices first labeled at its level. */
    int64_t *fr = s->fr, *nx = s->nx;
    int64_t sp = 0, flen = 0, lvl = 0;
    while (sp < nsched || flen > 0) {
        if (flen == 0)
            lvl = s->sched[sp].pert;  /* every earlier seed level drained */
        int64_t alen = 0;
        while (sp < nsched && s->sched[sp].pert == lvl) {
            int64_t v = s->sched[sp++].id, i = tin[v] - lo;
            if (hop[i] != lvl) continue;  /* relabeled at a lower hop */
            s->settled[i] = 1;
            s->act[alen].pert = pert[i];
            s->act[alen++].id = v;
        }
        for (int64_t j = 0; j < flen; j++) {
            int64_t i = tin[fr[j]] - lo;
            s->settled[i] = 1;
            s->act[alen].pert = pert[i];
            s->act[alen++].id = fr[j];
        }
        if (!exact)  /* the exact order needs no settle order */
            sort_keyed(s->act, alen, sizeof(wl_entry));
        int64_t nlen = 0;
        for (int64_t j = 0; j < alen; j++) {
            int64_t v = s->act[j].id, pv = s->act[j].pert;
            for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
                int64_t w = indices[k];
                int64_t i = tin[w] - lo;
                if (i < 0 || i >= size) continue;  /* outside, f included */
                if (s->settled[i]) continue;
                int64_t e = edge_ids[k];
                if (exact) {
                    if (hop[i] != lvl + 1) {
                        hop[i] = lvl + 1;
                        nx[nlen++] = w;
                    } else if (!path_lighter(&t0, v, e, par[i], peid[i])) {
                        continue;
                    }
                    par[i] = v;
                    peid[i] = e;
                    continue;
                }
                int64_t c = pv + pert_edge[e];
                if (hop[i] == lvl + 1) {
                    if (c < pert[i]) {
                        pert[i] = c;
                        par[i] = v;
                        peid[i] = e;
                    } else if (c == pert[i] && peid[i] != e) {
                        return 1;  /* the reference's relaxation tie */
                    }
                } else {
                    hop[i] = lvl + 1;
                    pert[i] = c;
                    par[i] = v;
                    peid[i] = e;
                    nx[nlen++] = w;
                }
            }
        }
        int64_t *tmp = fr; fr = nx; nx = tmp;
        flen = nlen;
        lvl++;
    }
    return 0;
}

/* The weighted failure sweep in one call: for each failed tree edge
 * fail_eid[j], whose deeper endpoint c = fail_child[j] roots the Euler
 * interval [tin[c], tout[c]), the subtree's replacement row
 * (engine/base.py::replacement_failure is the spec), written straight
 * into the repl_* planes at row_off[j] .. row_off[j + 1] in preorder.
 * hop0/pert0 are the tree's labels (hop0 -1 where unreachable) and
 * par0/peid0 its parents (-1 at the root).
 *
 * Per failure, the seeded (hop, pert) relaxation of the reference's
 * restricted Dijkstra: the intake takes the crossing-edge seeds in the
 * reference's order through its running minimum, and the levels settle
 * in (pert, vertex) order - the reference heap's pop order - relaxing
 * each settled vertex's edges in CSR order into the interval, so every
 * target meets the reference's candidates in the reference's order.
 * Top-down only: seed labels at the next level are incumbents and
 * those at higher hops are stale, and a bottom-up step would read
 * either as unreached.  State is indexed by preorder position, tin[w] -
 * tin[c], so a failure touches its own row and an O(subtree) scratch,
 * never an n-wide layer.
 *
 * A NULL pert_edge selects the exact scheme's order (see the header;
 * pert0 may be NULL then): the intake's comparisons climb T0 from the
 * seeds' outer ends, the relaxation's climb the row's parents inside
 * the interval and T0's outside it, every pert entry reads 0 and no
 * tie exists.
 *
 * Unreached entries read hop -1, pert 0, parents -1.  Returns the
 * number of complete rows: nfail, or the index of the first failure
 * whose intake or relaxation met a tie (its row is partial), or 0 on
 * allocation failure.  The caller reruns the failures from there on
 * the reference, which decides the outcome and raises its own error. */
int64_t repro_weighted_sweep(
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const int64_t *pert_edge,
    const int64_t *hop0,
    const int64_t *pert0,
    const int64_t *par0,
    const int64_t *peid0,
    const int64_t *tin,
    const int64_t *tout,
    const int64_t *preorder,
    int64_t nfail,
    const int64_t *fail_eid,
    const int64_t *fail_child,
    const int64_t *row_off,
    int64_t *repl_hop,
    int64_t *repl_pert,
    int64_t *repl_parent,
    int64_t *repl_parent_eid)
{
    int64_t width = 1;
    for (int64_t j = 0; j < nfail; j++) {
        int64_t c = fail_child[j];
        if (tout[c] - tin[c] > width)
            width = tout[c] - tin[c];
    }
    size_t w = (size_t)width;
    ws_scratch s = {
        malloc(w * sizeof(wl_entry)),
        malloc(w * sizeof(wl_entry)),
        malloc(w * sizeof(int64_t)),
        malloc(w * sizeof(int64_t)),
        malloc(w),
    };
    const path_tree t0 = {par0, peid0, tin, 0, 0, NULL, NULL};
    int64_t done = 0;
    if (s.sched && s.act && s.fr && s.nx && s.settled) {
        for (; done < nfail; done++) {
            int64_t c = fail_child[done], off = row_off[done];
            if (sweep_one(indptr, indices, edge_ids, pert_edge, hop0, pert0,
                          tin, preorder, fail_eid[done], tin[c], tout[c], &s,
                          t0, repl_hop + off, repl_pert + off,
                          repl_parent + off, repl_parent_eid + off))
                break;
        }
    }
    free(s.sched); free(s.act); free(s.fr); free(s.nx); free(s.settled);
    return done;
}

/* The escape table of one finished detour search (engine/base.py:
 * escape_table is the spec), for the path p[0 .. k] = [u_0, ..., u_k =
 * v] it searched from v with u_0 .. u_{k-1} banned.  For each j < k,
 * u_j's edges (u_j, w, e) are scanned in CSR order - the adjacency order
 * - skipping the tree edge (u_{k-1}, v) and every w the search left
 * unsettled (the banned path vertices among them); the smallest
 * (hop(w) + 1, pert(w) + pert_edge[e]) wins, the first among equals
 * (strict <).  Comparing the pair is comparing the reference's
 * composite W(e) + dist(w): u_j, w, ..., v is a simple path, so the
 * plan's bound keeps its perturbation sum below the hop bits.  Under the
 * exact order (NULL pert_edge) path_lighter's climb over the search's
 * own parents decides same-hop candidates instead.  The winner lands at
 * u_j's position in esc_hop/esc_w/esc_eid; a u_j with no candidate,
 * and the path's last position, get esc_hop = -1. */
static void escape_scan(
    const wl_graph *g, const int64_t *p, int64_t k,
    int64_t *esc_hop, int64_t *esc_w, int64_t *esc_eid)
{
    const int64_t *indptr = g->indptr, *pert_edge = g->pert_edge;
    int64_t v = p[k];
    esc_hop[k] = esc_w[k] = esc_eid[k] = -1;
    for (int64_t i = 0; i < k; i++) {
        int64_t bh = -1, bp = 0, bw = -1, be = -1;
        int64_t u = p[i];
        for (int64_t x = indptr[u]; x < indptr[u + 1]; x++) {
            int64_t w = g->indices[x];
            if (w == v && i == k - 1)
                continue;  /* the tree edge (u_{k-1}, v) */
            if (!g->settled[w])
                continue;
            int64_t h = g->hop_t[w] + 1, e = g->edge_ids[x];
            int64_t c = pert_edge ? g->pert_t[w] + pert_edge[e] : 0;
            if (bh < 0 || h < bh
                || (h == bh && (pert_edge ? c < bp
                                : path_lighter(&g->tree, w, e, bw, be)))) {
                bh = h;
                bp = c;
                bw = w;
                be = e;
            }
        }
        esc_hop[i] = bh;
        esc_w[i] = bw;
        esc_eid[i] = be;
    }
}

/* The Pcons detour batch (engine/base.py: reference_escapes is the
 * spec), one search per path, each on the same n-entry scratch.  Path b
 * occupies path[path_ptr[b] .. path_ptr[b+1]) as [u_0, ..., u_k = v];
 * the caller checked every id against [0, n), every cap[b] against a
 * negative value and every v against the rest of its path.  Per path:
 *
 * - ban u_0 .. u_{k-1}; the search's targets are their neighbours that
 *   are neither banned nor v (detour_targets), each listed once;
 * - seed v at hop 0 and run the relaxation (run_layer) with those
 *   targets and cap[b], writing its parents straight into row b of
 *   parent/parent_eid (n entries from b * n): a labeled vertex's
 *   parent, -1 at v and wherever the search labeled nothing, which
 *   the exact order's comparisons climb;
 * - read the escape table (escape_scan) into the path's positions of
 *   esc_hop/esc_w/esc_eid;
 * - lift the bans and target marks and reset settled and hop, so the
 *   next search starts on clean scratch.
 *
 * Returns 0; 1 on the relaxation tie event (random scheme only) and -1
 * on allocation failure, both of which hand the whole batch back to the
 * reference, so the rows of a bail are left partial. */
int64_t repro_detour_batch(
    int64_t n,
    const int64_t *indptr,
    const int64_t *indices,
    const int64_t *edge_ids,
    const int64_t *pert_edge,
    int64_t n_paths,
    const int64_t *path_ptr,
    const int64_t *path,
    const int64_t *cap,
    int64_t *esc_hop,
    int64_t *esc_w,
    int64_t *esc_eid,
    int64_t *parent,
    int64_t *parent_eid)
{
    size_t width = (size_t)(n > 0 ? n : 1);
    uint8_t *settled = calloc(width, 1);
    uint8_t *vertex_ok = malloc(width);
    uint8_t *is_tgt = calloc(width, 1);
    int64_t *hop_t = malloc(width * sizeof(int64_t));
    int64_t *pert_t = malloc(width * sizeof(int64_t));
    int64_t *tgt = malloc(width * sizeof(int64_t));
    wl_scratch s;
    int64_t rc = -1;
    if (settled && vertex_ok && is_tgt && hop_t && pert_t && tgt
        && wl_scratch_alloc(&s, n)) {
        memset(vertex_ok, 1, width);
        for (int64_t x = 0; x < n; x++)
            hop_t[x] = -1;
        rc = 0;
        for (int64_t b = 0; b < n_paths && rc == 0; b++) {
            const int64_t *p = path + path_ptr[b];
            int64_t k = path_ptr[b + 1] - path_ptr[b] - 1, v = p[k];
            int64_t *par = parent + b * n, *peid = parent_eid + b * n;
            for (int64_t x = 0; x < n; x++)
                par[x] = peid[x] = -1;
            for (int64_t i = 0; i < k; i++)
                vertex_ok[p[i]] = 0;
            int64_t ntgt = 0;
            for (int64_t i = 0; i < k; i++) {
                for (int64_t x = indptr[p[i]]; x < indptr[p[i] + 1]; x++) {
                    int64_t w = indices[x];
                    if (vertex_ok[w] && w != v && !is_tgt[w]) {
                        is_tgt[w] = 1;
                        tgt[ntgt++] = w;
                    }
                }
            }
            hop_t[v] = 0;
            pert_t[v] = 0;
            const wl_graph g = {
                n, indptr, indices, edge_ids, pert_edge, NULL, vertex_ok,
                settled, hop_t, pert_t, par, peid,
                {par, peid, NULL, 0, 0, NULL, NULL},
            };
            rc = run_layer(&g, &s, &v, 1, tgt, ntgt, cap[b]);
            if (rc == 0)
                escape_scan(&g, p, k, esc_hop + path_ptr[b],
                            esc_w + path_ptr[b], esc_eid + path_ptr[b]);
            for (int64_t i = 0; i < k; i++)
                vertex_ok[p[i]] = 1;
            for (int64_t i = 0; i < ntgt; i++)
                is_tgt[tgt[i]] = 0;
            memset(settled, 0, width);
            for (int64_t x = 0; x < n; x++)
                hop_t[x] = -1;
        }
        wl_scratch_free(&s);
    }
    free(settled); free(vertex_ok); free(is_tgt);
    free(hop_t); free(pert_t); free(tgt);
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
