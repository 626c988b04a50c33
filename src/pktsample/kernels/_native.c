/* Compiled sampling kernels: bit-identical twin of ``pure.py``.
 *
 * Same SplitMix64 stream, same mask-and-reject bounded draws, same draw
 * order everywhere.  Keep the two modules in lockstep; the test suite
 * diffs their outputs whenever this extension is importable.
 *
 * Plain C99 against the CPython C-API; it needs nothing but a C compiler.
 * Population, count, draw and trials lie in [0, 2**63), else ValueError;
 * seeds and indices are any ints, taken modulo 2**64; an Rng bound lies
 * in [1, 2**64), else ValueError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define GAMMA UINT64_C(0x9E3779B97F4A7C15)

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

static uint64_t next_u64(uint64_t *state)
{
    *state += GAMMA;
    return mix64(*state);
}

/* Uniform integer in [0, bound) via mask-and-reject; bound <= 1 draws nothing. */
static uint64_t randbelow(uint64_t *state, uint64_t bound)
{
    uint64_t mask = bound - 1, value;
    int shift;
    if (bound <= 1)
        return 0;
    for (shift = 1; shift < 64; shift <<= 1)
        mask |= mask >> shift;
    do {
        value = next_u64(state) & mask;
    } while (value >= bound);
    return value;
}

/* An int taken modulo 2**64 (seeds and indices). */
static int as_u64(PyObject *obj, uint64_t *out)
{
    *out = PyLong_AsUnsignedLongLongMask(obj);
    return (*out == (uint64_t)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* An int in [0, 2**63): population, count, draw, trials. */
static int as_size(PyObject *obj, const char *name, int64_t *out)
{
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (overflow || value < 0) {
        PyErr_Format(PyExc_ValueError, "%s must lie in [0, 2**63), got %R", name, obj);
        return -1;
    }
    *out = value;
    return 0;
}

static PyObject *new_list(int64_t length)
{
    return length > PY_SSIZE_T_MAX ? PyErr_NoMemory() : PyList_New((Py_ssize_t)length);
}

/* (*list)[i] = value; on failure *list is cleared, which ends the caller's loop. */
static void set_int(PyObject **list, int64_t i, int64_t value)
{
    PyObject *item = PyLong_FromLongLong(value);
    if (item == NULL)
        Py_CLEAR(*list);
    else
        PyList_SET_ITEM(*list, (Py_ssize_t)i, item);
}

/* [first, first + 1, ..., first + count - 1] */
static PyObject *int_range(int64_t first, int64_t count)
{
    PyObject *out = new_list(count);
    int64_t i;
    for (i = 0; out != NULL && i < count; i++)
        set_int(&out, i, first + i);
    return out;
}

/* The virtual array 0..population-1 of a partial Fisher-Yates that draws
 * ``draw`` positions (the ``swaps`` dict of pure.py), in memory that
 * follows the draw count, not the population.  Step i reads slot i and
 * swaps it with some slot j >= i, so slots below ``draw`` live in a plain
 * array and the touched slots above it in an open-addressing map with
 * linear probing and at least twice as many entries as draws. */
typedef struct {
    int64_t key; /* -1 marks an empty entry */
    int64_t value;
} Slot;

typedef struct {
    int64_t draw;
    int64_t *front; /* slots 0..draw-1; owns the memory of both arrays */
    Slot *map;      /* touched slots >= draw */
    size_t mask;
    int shift;
} SwapMap;

/* Back to the identity arrangement. */
static void swapmap_reset(SwapMap *swaps)
{
    int64_t k;
    for (k = 0; k < swaps->draw; k++)
        swaps->front[k] = k;
    memset(swaps->map, 0xFF, (swaps->mask + 1) * sizeof(Slot));
}

/* PyMem_Free(swaps->front) afterwards, also when this fails. */
static int swapmap_init(SwapMap *swaps, int64_t draw)
{
    size_t size = 16;
    int bits = 4;
    swaps->front = NULL;
    if ((uint64_t)draw > PY_SSIZE_T_MAX / (8 * sizeof(Slot))) {
        PyErr_NoMemory();
        return -1;
    }
    for (; size / 2 < (uint64_t)draw; bits++)
        size <<= 1;
    swaps->front = PyMem_Malloc(sizeof(int64_t) * (size_t)(draw + 1)
                                 + sizeof(Slot) * size);
    if (swaps->front == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    swaps->draw = draw;
    swaps->map = (Slot *)(swaps->front + draw + 1);
    swaps->mask = size - 1;
    swaps->shift = 64 - bits;
    swapmap_reset(swaps);
    return 0;
}

/* Step ``i``: the 0-based position it takes. */
static int64_t swap_step(SwapMap *swaps, uint64_t *state, int64_t population, int64_t i)
{
    int64_t j = i + (int64_t)randbelow(state, (uint64_t)(population - i));
    int64_t moved = swaps->front[i], taken;
    Slot *slot;
    size_t k;
    if (j < swaps->draw) {
        taken = swaps->front[j];
        swaps->front[j] = moved;
        return taken;
    }
    k = (size_t)(((uint64_t)j * GAMMA) >> swaps->shift);
    while (swaps->map[k].key != j && swaps->map[k].key != -1)
        k = (k + 1) & swaps->mask;
    slot = &swaps->map[k];
    taken = slot->key == j ? slot->value : j;
    slot->key = j;
    slot->value = moved;
    return taken;
}

/* --- Rng ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    uint64_t state;
} RngObject;

static PyObject *Rng_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed;
    RngObject *self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:Rng", kwlist, &seed))
        return NULL;
    self = (RngObject *)type->tp_alloc(type, 0);
    if (self != NULL && as_u64(seed, &self->state) < 0)
        Py_CLEAR(self);
    return (PyObject *)self;
}

static PyObject *Rng_next_u64(RngObject *self, PyObject *unused)
{
    return PyLong_FromUnsignedLongLong(next_u64(&self->state));
}

static PyObject *Rng_randbelow(RngObject *self, PyObject *bound)
{
    unsigned long long value = PyLong_AsUnsignedLongLong(bound);
    if (value == (unsigned long long)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        PyErr_Clear();
        value = 0;
    }
    if (value == 0) {
        PyErr_Format(PyExc_ValueError, "bound must lie in [1, 2**64), got %R", bound);
        return NULL;
    }
    return PyLong_FromUnsignedLongLong(randbelow(&self->state, value));
}

static PyMethodDef Rng_methods[] = {
    {"next_u64", (PyCFunction)Rng_next_u64, METH_NOARGS, "Next 64-bit output."},
    {"randbelow", (PyCFunction)Rng_randbelow, METH_O,
     "Uniform integer in [0, bound) via mask-and-reject."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RngType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "pktsample.kernels._native.Rng",
    .tp_basicsize = sizeof(RngObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "SplitMix64 stream over a 64-bit seed.",
    .tp_methods = Rng_methods,
    .tp_new = Rng_new,
};

/* --- module functions ----------------------------------------------------- */

static PyObject *derive_seed(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"seed", "index", NULL};
    PyObject *seed_arg, *index_arg;
    uint64_t seed, index;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:derive_seed", kwlist,
                                     &seed_arg, &index_arg)
        || as_u64(seed_arg, &seed) < 0 || as_u64(index_arg, &index) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(mix64(seed + GAMMA * (index + 1)));
}

static PyObject *permutation(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"count", "seed", NULL};
    PyObject *count_arg, *seed_arg, *items, *tmp;
    int64_t count, i, j;
    uint64_t state;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:permutation", kwlist,
                                     &count_arg, &seed_arg)
        || as_size(count_arg, "count", &count) < 0 || as_u64(seed_arg, &state) < 0
        || (items = int_range(0, count)) == NULL)
        return NULL;
    for (i = count - 1; i > 0; i--) {
        j = (int64_t)randbelow(&state, (uint64_t)i + 1);
        tmp = PyList_GET_ITEM(items, i);
        PyList_SET_ITEM(items, i, PyList_GET_ITEM(items, j));
        PyList_SET_ITEM(items, j, tmp);
    }
    return items;
}

/* The (population, count, seed) arguments of both samplers. */
static int sampler_args(PyObject *args, PyObject *kwargs, const char *format,
                        int64_t *population, int64_t *count, uint64_t *state)
{
    static char *kwlist[] = {"population", "count", "seed", NULL};
    PyObject *population_arg, *count_arg, *seed_arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, format, kwlist,
                                     &population_arg, &count_arg, &seed_arg)
        || as_size(population_arg, "population", population) < 0
        || as_size(count_arg, "count", count) < 0 || as_u64(seed_arg, state) < 0)
        return -1;
    return 0;
}

static PyObject *sample_without_replacement(PyObject *module, PyObject *args,
                                            PyObject *kwargs)
{
    PyObject *out;
    int64_t population, count, i;
    uint64_t state;
    SwapMap swaps;
    if (sampler_args(args, kwargs, "OOO:sample_without_replacement",
                     &population, &count, &state) < 0)
        return NULL;
    if (count >= population)
        return int_range(1, population);
    out = swapmap_init(&swaps, count) < 0 ? NULL : new_list(count);
    for (i = 0; out != NULL && i < count; i++)
        set_int(&out, i, swap_step(&swaps, &state, population, i) + 1);
    PyMem_Free(swaps.front);
    if (out != NULL && PyList_Sort(out) < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *sample_with_replacement(PyObject *module, PyObject *args,
                                         PyObject *kwargs)
{
    PyObject *out;
    int64_t population, count, i;
    uint64_t state;
    if (sampler_args(args, kwargs, "OOO:sample_with_replacement",
                     &population, &count, &state) < 0)
        return NULL;
    if (count > 0 && population == 0) {
        PyErr_SetString(PyExc_ValueError, "cannot draw from an empty population");
        return NULL;
    }
    out = new_list(count);
    for (i = 0; out != NULL && i < count; i++)
        set_int(&out, i, (int64_t)randbelow(&state, (uint64_t)population) + 1);
    return out;
}

/* Index of the class whose block of the population holds ``position``:
 * the first class whose cumulative end exceeds it (``bisect_right``).
 * Branch-free, so the unpredictable comparisons cost no mispredictions. */
static Py_ssize_t class_of(const int64_t *ends, Py_ssize_t classes, int64_t position)
{
    const int64_t *base = ends;
    while (classes > 1) {
        Py_ssize_t half = classes / 2;
        base = base[half] <= position ? base + half : base;
        classes -= half;
    }
    return (base - ends) + (*base <= position);
}

static PyObject *class_count_trials(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"counts", "draw", "trials", "seed", "with_replacement",
                             "first", NULL};
    PyObject *counts_arg, *draw_arg, *trials_arg, *seed_arg, *first_arg = NULL, *counts,
        *rows = NULL, *row;
    int with_replacement = 0;
    int64_t *ends, *per_class, population = 0, draw, trials, trial, count, i;
    uint64_t seed, first = 0, state;
    Py_ssize_t classes, c;
    SwapMap swaps = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO|pO:class_count_trials", kwlist,
                                     &counts_arg, &draw_arg, &trials_arg, &seed_arg,
                                     &with_replacement, &first_arg)
        || (counts = PySequence_Fast(counts_arg, "counts must be a sequence")) == NULL)
        return NULL;
    classes = PySequence_Fast_GET_SIZE(counts);
    if ((ends = PyMem_Malloc(sizeof(int64_t) * 2 * (classes + 1))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    per_class = ends + classes + 1;
    for (c = 0; c < classes; c++) {
        if (as_size(PySequence_Fast_GET_ITEM(counts, c), "counts", &count) < 0)
            goto done;
        if (count > INT64_MAX - population) {
            PyErr_SetString(PyExc_ValueError, "population must lie in [0, 2**63)");
            goto done;
        }
        population += count;
        ends[c] = population;
    }
    if (as_size(draw_arg, "draw", &draw) < 0 || as_size(trials_arg, "trials", &trials) < 0
        || as_u64(seed_arg, &seed) < 0
        || (first_arg != NULL && as_u64(first_arg, &first) < 0))
        goto done;
    if (with_replacement && draw > 0 && population == 0) {
        PyErr_SetString(PyExc_ValueError, "cannot draw from an empty population");
        goto done;
    }
    if (!with_replacement && draw > population)
        draw = population;
    if (!with_replacement && swapmap_init(&swaps, draw) < 0)
        goto done;
    rows = new_list(trials);
    for (trial = 0; rows != NULL && trial < trials; trial++) {
        state = mix64(seed + GAMMA * (first + (uint64_t)trial + 1));
        memset(per_class, 0, sizeof(int64_t) * classes);
        if (trial > 0 && !with_replacement)
            swapmap_reset(&swaps);
        for (i = 0; i < draw; i++)
            per_class[class_of(ends, classes,
                               with_replacement
                                   ? (int64_t)randbelow(&state, (uint64_t)population)
                                   : swap_step(&swaps, &state, population, i))]++;
        row = new_list(classes);
        for (c = 0; row != NULL && c < classes; c++)
            set_int(&row, c, per_class[c]);
        if (row == NULL)
            Py_CLEAR(rows);
        else
            PyList_SET_ITEM(rows, (Py_ssize_t)trial, row);
    }
done:
    PyMem_Free(swaps.front);
    PyMem_Free(ends);
    Py_DECREF(counts);
    return rows;
}

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef module_methods[] = {
    KERNEL(derive_seed,
           "Derive the substream seed for ``index`` (stratum or trial number)."),
    KERNEL(permutation, "Fisher-Yates permutation of 0..count-1, high index downward."),
    KERNEL(sample_without_replacement,
           "Uniform simple random sample of distinct 1-based positions, ascending."),
    KERNEL(sample_with_replacement,
           "``count`` independent uniform draws of 1-based positions, draw order."),
    KERNEL(class_count_trials,
           "Per-class sampled counts of trials ``first .. first + trials - 1`` "
           "of uniform sampling."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "pktsample.kernels._native",
    .m_doc = "Compiled sampling kernels: bit-identical twin of pure.py.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module != NULL && PyModule_AddType(module, &RngType) < 0)
        Py_CLEAR(module);
    return module;
}
