/* Compiled sampling kernels: bit-identical twin of ``pure.py``.
 *
 * Same SplitMix64 stream, same mask-and-reject bounded draws, same draw
 * order everywhere.  Keep the two modules in lockstep; the test suite
 * diffs their outputs whenever this extension is importable.
 *
 * Plain C99 against the CPython C-API; it needs nothing but a C compiler.
 * Population, count, draw, trials and the number of classes lie in
 * [0, 2**63), else ValueError; seeds and indices are any ints, taken
 * modulo 2**64; an Rng bound lies in [1, 2**64), else ValueError.
 *
 * It also holds the CSV and NDJSON label scanners, which have no pure
 * twin: dataset.py's Python parser reads what they hand back.
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

/* An int in [0, 2**63): population, count, draw, trials, nclasses. */
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

/* Code ``i`` of a buffer of ``itemsize``-byte unsigned ints. */
static uint64_t code_at(const char *codes, Py_ssize_t itemsize, Py_ssize_t i)
{
    uint8_t u8;
    uint16_t u16;
    uint32_t u32;
    uint64_t u64;
    switch (itemsize) {
    case 1:
        memcpy(&u8, codes + i, 1);
        return u8;
    case 2:
        memcpy(&u16, codes + 2 * i, 2);
        return u16;
    case 4:
        memcpy(&u32, codes + 4 * i, 4);
        return u32;
    default:
        memcpy(&u64, codes + 8 * i, 8);
        return u64;
    }
}

/* array('q') of ``length`` zeros, its items exported writable to ``view``. */
static PyObject *zero_positions(Py_ssize_t length, Py_buffer *view)
{
    PyObject *module = PyImport_ImportModule("array"), *one, *zeros = NULL;
    if (module == NULL)
        return NULL;
    one = PyObject_CallMethod(module, "array", "s[i]", "q", 0);
    Py_DECREF(module);
    if (one != NULL)
        zeros = PySequence_Repeat(one, length);
    Py_XDECREF(one);
    if (zeros != NULL
        && PyObject_GetBuffer(zeros, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        Py_CLEAR(zeros);
    return zeros;
}

static PyObject *group_by_code(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"codes", "nclasses", NULL};
    PyObject *codes_arg, *nclasses_arg, *counts = NULL, *positions = NULL, *result = NULL;
    Py_buffer codes, out = {0};
    int64_t nclasses, *starts = NULL, *position;
    Py_ssize_t records, i;
    uint64_t code;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:group_by_code", kwlist,
                                     &codes_arg, &nclasses_arg)
        || as_size(nclasses_arg, "nclasses", &nclasses) < 0
        || PyObject_GetBuffer(codes_arg, &codes, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    if (codes.ndim != 1 || codes.format == NULL || codes.format[0] == '\0'
        || codes.format[1] != '\0' || strchr("BHILQ", codes.format[0]) == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "codes must be a one-dimensional buffer of unsigned ints");
        goto done;
    }
    records = codes.len / codes.itemsize;
    for (i = 0; i < records; i++) {
        code = code_at(codes.buf, codes.itemsize, i);
        if (code >= (uint64_t)nclasses) {
            PyErr_Format(PyExc_ValueError, "codes must lie in [0, %lld), got %llu",
                         (long long)nclasses, (unsigned long long)code);
            goto done;
        }
    }
    if ((uint64_t)nclasses >= PY_SSIZE_T_MAX / sizeof(int64_t)
        || (starts = PyMem_Calloc((size_t)nclasses + 1, sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < records; i++)
        starts[code_at(codes.buf, codes.itemsize, i) + 1]++;
    counts = new_list(nclasses);
    for (i = 0; counts != NULL && i < nclasses; i++)
        set_int(&counts, i, starts[i + 1]);
    for (i = 0; i < nclasses; i++)
        starts[i + 1] += starts[i];
    if (counts == NULL || (positions = zero_positions(records, &out)) == NULL)
        goto done;
    position = out.buf;
    for (i = 0; i < records; i++)
        position[starts[code_at(codes.buf, codes.itemsize, i)]++] = i + 1;
    result = PyTuple_Pack(2, counts, positions);
done:
    if (out.obj != NULL)
        PyBuffer_Release(&out);
    PyBuffer_Release(&codes);
    PyMem_Free(starts);
    Py_XDECREF(counts);
    Py_XDECREF(positions);
    return result;
}

/* --- label scanners ------------------------------------------------------- */

/* scan_csv_labels and scan_ndjson_labels read a whole CSV or NDJSON input
 * once, checking its UTF-8 on the way, and return (codes, tokens, ends):
 *   codes   the class code of each record, an array of unsigned ints
 *           ('B', 'H' or 'I', as the number of codes needs);
 *   tokens  code k's raw label token as (bytes, first record), codes in
 *           order of first appearance: the CSV field as the csv module
 *           reads it, or the JSON string literal, quotes included;
 *   ends    array('q'): ends[0] is the line on which the CSV header ends
 *           (0 for NDJSON) and ends[k] the line on which record k ends.
 * Lines end at \r\n, \r or \n, as in TextIOWrapper(newline=""), and a
 * UTF-8 BOM is skipped at offset 0.  A scanner returns None for every
 * input it cannot be sure to read as dataset.py's Python parser does,
 * every error among them; that parser, the reference, then reads it. */

#define JSON_MAX_DEPTH 64
/* Past this many digits an int may exceed sys.get_int_max_str_digits()
 * (640 is the smallest limit it may be set to), so int() may raise. */
#define JSON_MAX_INT_DIGITS 640

typedef struct {
    uint64_t hash;
    const char *bytes; /* the data of the token's bytes object in ``tokens`` */
    Py_ssize_t length;
} Token;

typedef struct {
    uint32_t *codes;     /* one per record */
    int64_t *ends;       /* ends[0], then one per record */
    Py_ssize_t records, capacity;
    PyObject *tokens;    /* list of (bytes, first record) */
    Token *table;        /* code -> token */
    Py_ssize_t distinct;
    uint32_t *slots;     /* open addressing: code + 1, or 0 when empty */
    size_t mask;
    char *scratch;       /* a quoted CSV label with its "" unescaped */
    Py_ssize_t scratch_size;
} Scan;

static void scan_free(Scan *scan)
{
    PyMem_Free(scan->codes);
    PyMem_Free(scan->ends);
    Py_XDECREF(scan->tokens);
    PyMem_Free(scan->table);
    PyMem_Free(scan->slots);
    PyMem_Free(scan->scratch);
}

static int scan_init(Scan *scan)
{
    memset(scan, 0, sizeof(*scan));
    scan->capacity = 1024;
    scan->mask = 63;
    scan->codes = PyMem_Malloc(scan->capacity * sizeof(uint32_t));
    scan->ends = PyMem_Malloc((scan->capacity + 1) * sizeof(int64_t));
    scan->table = PyMem_Malloc((scan->mask + 1) / 2 * sizeof(Token));
    scan->slots = PyMem_Calloc(scan->mask + 1, sizeof(uint32_t));
    scan->tokens = PyList_New(0);
    if (scan->tokens == NULL)
        return -1;
    if (scan->codes == NULL || scan->ends == NULL || scan->table == NULL
        || scan->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    scan->ends[0] = 0;
    return 0;
}

static uint64_t token_hash(const char *bytes, Py_ssize_t length)
{
    uint64_t hash = UINT64_C(0xCBF29CE484222325); /* FNV-1a */
    Py_ssize_t i;
    for (i = 0; i < length; i++)
        hash = (hash ^ (unsigned char)bytes[i]) * UINT64_C(0x100000001B3);
    return mix64(hash);
}

/* Twice the slots, for ``table``'s codes to fill at most half of them. */
static int scan_grow_table(Scan *scan)
{
    size_t size = 2 * (scan->mask + 1), k;
    Py_ssize_t code;
    uint32_t *slots;
    Token *table;
    if (size > PY_SSIZE_T_MAX / sizeof(Token)) {
        PyErr_NoMemory();
        return -1;
    }
    slots = PyMem_Calloc(size, sizeof(uint32_t));
    table = slots == NULL ? NULL : PyMem_Realloc(scan->table, size / 2 * sizeof(Token));
    if (table == NULL) {
        PyMem_Free(slots);
        PyErr_NoMemory();
        return -1;
    }
    scan->table = table;
    PyMem_Free(scan->slots);
    scan->slots = slots;
    scan->mask = size - 1;
    for (code = 0; code < scan->distinct; code++) {
        k = (size_t)table[code].hash & scan->mask;
        while (slots[k] != 0)
            k = (k + 1) & scan->mask;
        slots[k] = (uint32_t)code + 1;
    }
    return 0;
}

/* Records one more record: its label token and the line it ends on.
 * 1 when done, 0 to hand the input over (codes past uint32), -1 on error. */
static int scan_push(Scan *scan, const char *bytes, Py_ssize_t length, int64_t line)
{
    uint64_t hash = token_hash(bytes, length);
    size_t k = (size_t)hash & scan->mask;
    uint32_t slot;
    Token *token;
    PyObject *entry;
    while ((slot = scan->slots[k]) != 0) {
        token = &scan->table[slot - 1];
        if (token->hash == hash && token->length == length
            && memcmp(token->bytes, bytes, (size_t)length) == 0)
            break;
        k = (k + 1) & scan->mask;
    }
    if (slot == 0) {
        if (scan->distinct == UINT32_MAX - 1)
            return 0;
        if ((size_t)scan->distinct + 1 > (scan->mask + 1) / 2) {
            if (scan_grow_table(scan) < 0)
                return -1;
            k = (size_t)hash & scan->mask;
            while (scan->slots[k] != 0)
                k = (k + 1) & scan->mask;
        }
        entry = Py_BuildValue("(y#n)", bytes, length, scan->records);
        if (entry == NULL || PyList_Append(scan->tokens, entry) < 0) {
            Py_XDECREF(entry);
            return -1;
        }
        Py_DECREF(entry);
        token = &scan->table[scan->distinct];
        token->hash = hash;
        token->bytes = PyBytes_AS_STRING(PyTuple_GET_ITEM(entry, 0));
        token->length = length;
        slot = scan->slots[k] = (uint32_t)++scan->distinct;
    }
    if (scan->records == scan->capacity) {
        uint32_t *codes;
        int64_t *ends;
        Py_ssize_t capacity = 2 * scan->capacity;
        if (capacity > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int64_t) - 1) {
            PyErr_NoMemory();
            return -1;
        }
        codes = PyMem_Realloc(scan->codes, capacity * sizeof(uint32_t));
        if (codes != NULL)
            scan->codes = codes;
        ends = codes == NULL
                   ? NULL
                   : PyMem_Realloc(scan->ends, (capacity + 1) * sizeof(int64_t));
        if (ends == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        scan->ends = ends;
        scan->capacity = capacity;
    }
    scan->codes[scan->records++] = slot - 1;
    scan->ends[scan->records] = line;
    return 1;
}

/* array(typecode) holding ``size`` bytes of ``data``. */
static PyObject *new_array(const char *typecode, const void *data, Py_ssize_t size)
{
    PyObject *module = PyImport_ImportModule("array"), *array, *view, *done = NULL;
    if (module == NULL)
        return NULL;
    array = PyObject_CallMethod(module, "array", "s", typecode);
    Py_DECREF(module);
    view = array == NULL ? NULL : PyMemoryView_FromMemory((char *)data, size, PyBUF_READ);
    if (view != NULL)
        done = PyObject_CallMethod(array, "frombytes", "O", view);
    Py_XDECREF(view);
    if (done == NULL)
        Py_CLEAR(array);
    Py_XDECREF(done);
    return array;
}

/* The scanner's (codes, tokens, ends), each code in the fewest bytes. */
static PyObject *scan_result(Scan *scan)
{
    Py_ssize_t itemsize = scan->distinct <= 0x100 ? 1 : scan->distinct <= 0x10000 ? 2 : 4;
    const char *typecode = itemsize == 1 ? "B" : itemsize == 2 ? "H" : "I";
    void *narrow = itemsize == 4 ? (void *)scan->codes
                                 : PyMem_Malloc(scan->records * itemsize);
    Py_ssize_t i;
    PyObject *codes = NULL, *ends = NULL, *result = NULL;
    if (narrow == NULL)
        return PyErr_NoMemory();
    for (i = 0; itemsize < 4 && i < scan->records; i++) {
        if (itemsize == 1)
            ((uint8_t *)narrow)[i] = (uint8_t)scan->codes[i];
        else
            ((uint16_t *)narrow)[i] = (uint16_t)scan->codes[i];
    }
    codes = new_array(typecode, narrow, scan->records * itemsize);
    if (narrow != scan->codes)
        PyMem_Free(narrow);
    ends = codes == NULL
               ? NULL
               : new_array("q", scan->ends, (scan->records + 1) * sizeof(int64_t));
    if (ends != NULL)
        result = PyTuple_Pack(3, codes, scan->tokens, ends);
    Py_XDECREF(codes);
    Py_XDECREF(ends);
    return result;
}

/* Length of the UTF-8 sequence whose lead byte (>= 0x80) is at p, or 0
 * where Python's strict decoder fails: a stray or truncated sequence, an
 * overlong form, an encoded surrogate (ED A0..BF) or a code point past
 * U+10FFFF. */
static Py_ssize_t utf8_sequence(const unsigned char *p, const unsigned char *end)
{
    unsigned char lo = 0x80, hi = 0xBF;
    Py_ssize_t length, k;
    if (p[0] >= 0xC2 && p[0] <= 0xDF)
        length = 2;
    else if (p[0] >= 0xE0 && p[0] <= 0xEF) {
        length = 3;
        lo = p[0] == 0xE0 ? 0xA0 : 0x80;
        hi = p[0] == 0xED ? 0x9F : 0xBF;
    } else if (p[0] >= 0xF0 && p[0] <= 0xF4) {
        length = 4;
        lo = p[0] == 0xF0 ? 0x90 : 0x80;
        hi = p[0] == 0xF4 ? 0x8F : 0xBF;
    } else
        return 0;
    if (end - p < length || p[1] < lo || p[1] > hi)
        return 0;
    for (k = 2; k < length; k++)
        if (p[k] < 0x80 || p[k] > 0xBF)
            return 0;
    return length;
}

/* Bytes that need no look in a CSV field (any ASCII but NUL, ',', '"',
 * '\r' and '\n') and in a JSON string (printable ASCII but '"' and '\\');
 * filled once by PyInit__native. */
static unsigned char csv_plain[256], json_plain[256];

static void fill_plain_tables(void)
{
    int c;
    for (c = 1; c < 0x80; c++) {
        csv_plain[c] = c != ',' && c != '"' && c != '\r' && c != '\n';
        json_plain[c] = c >= 0x20 && c != '"' && c != '\\';
    }
}

static const unsigned char *skip_bom(const unsigned char *p, const unsigned char *end)
{
    return end - p >= 3 && memcmp(p, "\xEF\xBB\xBF", 3) == 0 ? p + 3 : p;
}

/* Past the line break at p: \r\n, \r or \n. */
static const unsigned char *skip_break(const unsigned char *p, const unsigned char *end)
{
    return p + (*p == '\r' && p + 1 < end && p[1] == '\n' ? 2 : 1);
}

/* The csv module's default dialect: ',' between fields, '"' quotes and
 * "" inside quotes for one quote.  Hands over on a NUL, a '"' in an
 * unquoted field, text after a closing quote, a quote left open, a field
 * of more than field_limit bytes (its characters may still fit), a row
 * of other than ``width`` fields and no data rows.  The header is the
 * first record; a line holding no bytes is no record.
 * 1 when read, 0 to hand over, -1 on error. */
static int csv_scan(Scan *scan, const unsigned char *p, const unsigned char *end,
                    Py_ssize_t label_index, Py_ssize_t width, Py_ssize_t field_limit)
{
    const unsigned char *field, *label = NULL;
    Py_ssize_t fields, length, label_length = 0, n;
    int64_t line = 1;
    int quoted, escaped, label_escaped = 0, header = 1, pushed;
    for (p = skip_bom(p, end); p < end; line++) {
        if (*p == '\r' || *p == '\n') {
            if (header)
                return 0;
            p = skip_break(p, end);
            continue;
        }
        for (fields = 0;; fields++) {
            quoted = p < end && *p == '"';
            escaped = 0;
            field = p + quoted;
            for (p = field; p < end; ) {
                if (csv_plain[*p])
                    p++;
                else if (*p == '"') {
                    if (!quoted)
                        return 0;
                    if (p + 1 < end && p[1] == '"') {
                        escaped = 1;
                        p += 2;
                        continue;
                    }
                    break;
                } else if (*p == '\r' || *p == '\n') {
                    if (!quoted)
                        break;
                    p = skip_break(p, end);
                    line++;
                } else if (*p == ',') {
                    if (!quoted)
                        break;
                    p++;
                } else if (*p == 0)
                    return 0;
                else if ((n = utf8_sequence(p, end)) > 0)
                    p += n;
                else
                    return 0;
            }
            length = p - field;
            if (quoted && p++ == end)
                return 0;
            if (length > field_limit)
                return 0;
            if (fields == label_index) {
                label = field;
                label_length = length;
                label_escaped = escaped;
            }
            if (p == end || *p != ',')
                break;
            p++;
        }
        if (p < end) {
            if (*p != '\r' && *p != '\n')
                return 0;
            p = skip_break(p, end);
        }
        if (header) {
            scan->ends[0] = line;
            header = 0;
            continue;
        }
        if (fields + 1 != width)
            return 0;
        if (label_escaped) {
            Py_ssize_t i, j;
            if (label_length > scan->scratch_size) {
                char *scratch = PyMem_Realloc(scan->scratch, label_length);
                if (scratch == NULL) {
                    PyErr_NoMemory();
                    return -1;
                }
                scan->scratch = scratch;
                scan->scratch_size = label_length;
            }
            for (i = j = 0; i < label_length; i++, j++) {
                scan->scratch[j] = (char)label[i];
                if (label[i] == '"')
                    i++; /* the second quote of "" */
            }
            label = (const unsigned char *)scan->scratch;
            label_length = j;
        }
        if ((pushed = scan_push(scan, (const char *)label, label_length, line)) <= 0)
            return pushed;
    }
    return scan->records > 0;
}

static void json_space(const unsigned char **p, const unsigned char *end)
{
    while (*p < end && (**p == ' ' || **p == '\t'))
        (*p)++;
}

static int hex_digit(unsigned char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/* The string whose opening quote is at *p, as json.loads reads it in
 * strict mode; *escaped says whether it holds a backslash. */
static int json_string(const unsigned char **p, const unsigned char *end, int *escaped)
{
    const unsigned char *q = *p + 1;
    Py_ssize_t n;
    *escaped = 0;
    while (q < end && *q != '"') {
        if (json_plain[*q])
            q++;
        else if (*q == '\\') {
            *escaped = 1;
            if (end - q >= 6 && q[1] == 'u' && hex_digit(q[2]) && hex_digit(q[3])
                && hex_digit(q[4]) && hex_digit(q[5]))
                q += 6;
            else if (end - q >= 2 && q[1] != 0 && strchr("\"\\/bfnrt", q[1]) != NULL)
                q += 2;
            else
                return 0;
        } else if (*q < 0x20)
            return 0;
        else if ((n = utf8_sequence(q, end)) > 0)
            q += n;
        else
            return 0;
    }
    if (q == end)
        return 0;
    *p = q + 1;
    return 1;
}

static int json_digits(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *first = *p;
    while (*p < end && **p >= '0' && **p <= '9')
        (*p)++;
    return *p > first;
}

/* A number in the JSON grammar; NaN, Infinity and -Infinity hand over. */
static int json_number(const unsigned char **p, const unsigned char *end)
{
    const unsigned char *digits;
    if (*p < end && **p == '-')
        (*p)++;
    digits = *p;
    if (*p < end && **p == '0')
        (*p)++;
    else if (!json_digits(p, end) || *p - digits > JSON_MAX_INT_DIGITS)
        return 0;
    if (*p < end && **p == '.') {
        (*p)++;
        if (!json_digits(p, end))
            return 0;
    }
    if (*p < end && (**p == 'e' || **p == 'E')) {
        (*p)++;
        if (*p < end && (**p == '+' || **p == '-'))
            (*p)++;
        if (!json_digits(p, end))
            return 0;
    }
    return 1;
}

static int json_literal(const unsigned char **p, const unsigned char *end,
                        const char *word)
{
    size_t length = strlen(word);
    if ((size_t)(end - *p) < length || memcmp(*p, word, length) != 0)
        return 0;
    *p += length;
    return 1;
}

static int json_container(const unsigned char **p, const unsigned char *end, int depth,
                          const char *key, Py_ssize_t key_length,
                          const unsigned char **label, const unsigned char **label_end);

static int json_value(const unsigned char **p, const unsigned char *end, int depth)
{
    int escaped;
    if (*p == end)
        return 0;
    switch (**p) {
    case '{':
    case '[':
        return json_container(p, end, depth + 1, NULL, 0, NULL, NULL);
    case '"':
        return json_string(p, end, &escaped);
    case 't':
        return json_literal(p, end, "true");
    case 'f':
        return json_literal(p, end, "false");
    case 'n':
        return json_literal(p, end, "null");
    default:
        return json_number(p, end);
    }
}

/* The object or array at *p, which is ``depth`` levels deep.  With a key
 * (the top-level object), *label..*label_end is the string literal of
 * the last member so named, as json.loads keeps the last duplicate key.
 * Hands over on a member of that name that is not a string, and on a
 * member name holding an escape, which may decode to that name. */
static int json_container(const unsigned char **p, const unsigned char *end, int depth,
                          const char *key, Py_ssize_t key_length,
                          const unsigned char **label, const unsigned char **label_end)
{
    const unsigned char *name;
    unsigned char close = **p == '{' ? '}' : ']';
    int escaped, labelled;
    if (depth > JSON_MAX_DEPTH)
        return 0;
    (*p)++;
    json_space(p, end);
    if (*p < end && **p == close) {
        (*p)++;
        return 1;
    }
    for (;;) {
        labelled = 0;
        if (close == '}') {
            name = *p;
            if (*p == end || **p != '"' || !json_string(p, end, &escaped))
                return 0;
            if (key != NULL && escaped)
                return 0;
            labelled = key != NULL && *p - name - 2 == key_length
                       && memcmp(name + 1, key, (size_t)key_length) == 0;
            json_space(p, end);
            if (*p == end || **p != ':')
                return 0;
            (*p)++;
            json_space(p, end);
        }
        if (labelled) {
            *label = *p;
            if (*p == end || **p != '"' || !json_string(p, end, &escaped))
                return 0;
            *label_end = *p;
        } else if (!json_value(p, end, depth))
            return 0;
        json_space(p, end);
        if (*p == end || (**p != ',' && **p != close))
            return 0;
        if (*(*p)++ == close)
            return 1;
        json_space(p, end);
    }
}

/* One JSON object per line; a line of spaces and tabs only is skipped.
 * Hands over on any other line, on a line whose object lacks ``key``,
 * on nesting past JSON_MAX_DEPTH, an int of more than
 * JSON_MAX_INT_DIGITS digits and on no records.
 * 1 when read, 0 to hand over, -1 on error. */
static int ndjson_scan(Scan *scan, const unsigned char *p, const unsigned char *end,
                       const char *key, Py_ssize_t key_length)
{
    const unsigned char *label, *label_end;
    int64_t line = 0;
    int pushed;
    for (p = skip_bom(p, end); p < end; ) {
        line++;
        json_space(&p, end);
        if (p < end && *p == '{') {
            label = NULL;
            if (!json_container(&p, end, 1, key, key_length, &label, &label_end)
                || label == NULL)
                return 0;
            pushed = scan_push(scan, (const char *)label, label_end - label, line);
            if (pushed <= 0)
                return pushed;
            json_space(&p, end);
        }
        if (p < end) {
            if (*p != '\r' && *p != '\n')
                return 0;
            p = skip_break(p, end);
        }
    }
    return scan->records > 0;
}

/* Runs a scanner's outcome into its result: None when it handed over. */
static PyObject *scan_finish(Scan *scan, int outcome)
{
    PyObject *result = NULL;
    if (outcome > 0)
        result = scan_result(scan);
    else if (outcome == 0)
        result = Py_NewRef(Py_None);
    scan_free(scan);
    return result;
}

static PyObject *scan_csv_labels(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"buf", "label_index", "width", "field_limit", NULL};
    Py_buffer buf;
    Py_ssize_t label_index, width, field_limit;
    Scan scan;
    int outcome;
    PyObject *result;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y*nnn:scan_csv_labels", kwlist,
                                     &buf, &label_index, &width, &field_limit))
        return NULL;
    if (label_index < 0 || label_index >= width) {
        PyBuffer_Release(&buf);
        PyErr_SetString(PyExc_ValueError, "label_index must lie in [0, width)");
        return NULL;
    }
    outcome = scan_init(&scan);
    if (outcome == 0)
        outcome = csv_scan(&scan, buf.buf, (const unsigned char *)buf.buf + buf.len,
                           label_index, width, field_limit);
    result = scan_finish(&scan, outcome);
    PyBuffer_Release(&buf);
    return result;
}

static PyObject *scan_ndjson_labels(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"buf", "key", NULL};
    Py_buffer buf;
    PyObject *key_arg, *result;
    const char *key;
    Py_ssize_t key_length;
    Scan scan;
    int outcome;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y*U:scan_ndjson_labels", kwlist,
                                     &buf, &key_arg))
        return NULL;
    key = PyUnicode_AsUTF8AndSize(key_arg, &key_length);
    if (key == NULL) {
        /* a lone surrogate, which only an escaped member name can match */
        PyBuffer_Release(&buf);
        if (!PyErr_ExceptionMatches(PyExc_UnicodeEncodeError))
            return NULL;
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    outcome = scan_init(&scan);
    if (outcome == 0)
        outcome = ndjson_scan(&scan, buf.buf, (const unsigned char *)buf.buf + buf.len,
                              key, key_length);
    result = scan_finish(&scan, outcome);
    PyBuffer_Release(&buf);
    return result;
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
    KERNEL(group_by_code,
           "Stable counting sort of class codes: per-code counts and the 1-based "
           "positions grouped by code."),
    KERNEL(scan_csv_labels,
           "Class codes, distinct label tokens and end lines of a CSV input, "
           "or None."),
    KERNEL(scan_ndjson_labels,
           "Class codes, distinct label tokens and end lines of an NDJSON input, "
           "or None."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "pktsample.kernels._native",
    .m_doc = "Compiled sampling kernels, bit-identical twin of pure.py, "
             "and label scanners.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    fill_plain_tables();
    if (module != NULL && PyModule_AddType(module, &RngType) < 0)
        Py_CLEAR(module);
    return module;
}
