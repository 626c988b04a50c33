/* Compiled sampling kernels: bit-identical twin of ``pure.py``.
 *
 * Same SplitMix64 stream, same mask-and-reject bounded draws, same draw
 * order everywhere.  Keep the two modules in lockstep; the test suite
 * diffs their outputs whenever this extension is importable.
 *
 * Plain C99 against the CPython C-API; it needs nothing but a C compiler.
 * Population, count, draw, trials and the number of classes lie in
 * [0, 2**63), else ValueError; seeds and indices are any ints, taken
 * modulo 2**64.  pure.Rng is the reference for the stream.
 *
 * Kernels with a pure twin:
 *   derive_seed, permutation          the SplitMix64 stream and its shuffle
 *   sample_without_replacement,       uniform draws of 1-based positions
 *   sample_with_replacement
 *   class_count_trials                per-class counts of Monte Carlo trials
 *   count_codes                       the histogram of a code column
 *   group_by_code                     histogram and strata of a code column
 *   shuffled_codes                    a synthesized dataset's code column
 *   csv_rows                          a head and one CSV row per code, as one str
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

/* Swaps the ``size`` bytes at a and b; memcpy lets them hold any type. */
static void swap_items(char *a, char *b, size_t size)
{
    char held[8];
    memcpy(held, a, size);
    memcpy(a, b, size);
    memcpy(b, held, size);
}

/* Fisher-Yates over ``total`` items of ``itemsize`` (1, 2, 4 or 8) bytes, high
 * index downward, as ``permutation``; each case inlines a fixed-size swap. */
static void shuffle(char *items, Py_ssize_t itemsize, int64_t total, uint64_t state)
{
    char *a, *b;
    int64_t i;
    for (i = total - 1; i > 0; i--) {
        a = items + itemsize * i;
        b = items + itemsize * (int64_t)randbelow(&state, (uint64_t)i + 1);
        switch (itemsize) {
        case 1:
            swap_items(a, b, 1);
            break;
        case 2:
            swap_items(a, b, 2);
            break;
        case 4:
            swap_items(a, b, 4);
            break;
        default:
            swap_items(a, b, 8);
        }
    }
}

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
    PyObject *count_arg, *seed_arg, *items;
    int64_t count;
    uint64_t state;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:permutation", kwlist,
                                     &count_arg, &seed_arg)
        || as_size(count_arg, "count", &count) < 0 || as_u64(seed_arg, &state) < 0
        || (items = int_range(0, count)) == NULL)
        return NULL;
    shuffle((char *)PySequence_Fast_ITEMS(items), sizeof(PyObject *), count, state);
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

/* ``obj``'s items as a one-dimensional buffer whose format is one of the
 * characters of ``formats``, else TypeError ``message``; release ``view``
 * afterwards when this succeeds. */
static int get_column(PyObject *obj, Py_buffer *view, const char *formats,
                      const char *message)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->ndim != 1 || view->format == NULL || view->format[0] == '\0'
        || view->format[1] != '\0' || strchr(formats, view->format[0]) == NULL) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, message);
        return -1;
    }
    return 0;
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

/* Stores ``code`` as item i of a buffer of ``itemsize``-byte unsigned ints:
 * the inverse of code_at. */
static void set_code(char *codes, Py_ssize_t itemsize, Py_ssize_t i, uint64_t code)
{
    uint8_t u8 = (uint8_t)code;
    uint16_t u16 = (uint16_t)code;
    uint32_t u32 = (uint32_t)code;
    switch (itemsize) {
    case 1:
        memcpy(codes + i, &u8, 1);
        break;
    case 2:
        memcpy(codes + 2 * i, &u16, 2);
        break;
    case 4:
        memcpy(codes + 4 * i, &u32, 4);
        break;
    default:
        memcpy(codes + 8 * i, &code, 8);
    }
}

/* array(typecode) of ``length`` zeros, its items exported writable to ``view``. */
static PyObject *zero_array(const char *typecode, Py_ssize_t length, Py_buffer *view)
{
    PyObject *module = PyImport_ImportModule("array"), *one, *zeros = NULL;
    if (module == NULL)
        return NULL;
    one = PyObject_CallMethod(module, "array", "s[i]", typecode, 0);
    Py_DECREF(module);
    if (one != NULL)
        zeros = PySequence_Repeat(one, length);
    Py_XDECREF(one);
    if (zeros != NULL
        && PyObject_GetBuffer(zeros, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        Py_CLEAR(zeros);
    return zeros;
}

/* ``length`` zeros in the narrowest unsigned array that holds ``classes``
 * codes, picked as pure.code_array picks it: 'B' up to 256 classes, 'H' up
 * to 65536, else 'I'; see zero_array. */
static PyObject *code_array(Py_ssize_t classes, Py_ssize_t length, Py_buffer *view)
{
    return zero_array(classes <= 0x100 ? "B" : classes <= 0x10000 ? "H" : "I", length,
                      view);
}

/* The (codes, nclasses) arguments of count_codes and group_by_code, checked,
 * and the number of records of each code: counts[c + 1] for code c, after a
 * zero counts[0], in memory to PyMem_Free afterwards.  Releases ``codes``
 * and returns NULL on error. */
static int64_t *code_counts(PyObject *args, PyObject *kwargs, const char *format,
                            Py_buffer *codes, int64_t *nclasses)
{
    static char *kwlist[] = {"codes", "nclasses", NULL};
    PyObject *codes_arg, *nclasses_arg;
    int64_t *counts = NULL;
    Py_ssize_t records, i;
    uint64_t code;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, format, kwlist, &codes_arg,
                                     &nclasses_arg)
        || as_size(nclasses_arg, "nclasses", nclasses) < 0
        || get_column(codes_arg, codes, "BHILQ",
                      "codes must be a one-dimensional buffer of unsigned ints") < 0)
        return NULL;
    records = codes->len / codes->itemsize;
    for (i = 0; i < records; i++) {
        code = code_at(codes->buf, codes->itemsize, i);
        if (code >= (uint64_t)*nclasses) {
            PyErr_Format(PyExc_ValueError, "codes must lie in [0, %lld), got %llu",
                         (long long)*nclasses, (unsigned long long)code);
            goto fail;
        }
    }
    if ((uint64_t)*nclasses >= PY_SSIZE_T_MAX / sizeof(int64_t)
        || (counts = PyMem_Calloc((size_t)*nclasses + 1, sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < records; i++)
        counts[code_at(codes->buf, codes->itemsize, i) + 1]++;
    return counts;
fail:
    PyBuffer_Release(codes);
    return NULL;
}

/* counts[1..nclasses] as a list. */
static PyObject *count_list(const int64_t *counts, int64_t nclasses)
{
    PyObject *out = new_list(nclasses);
    int64_t i;
    for (i = 0; out != NULL && i < nclasses; i++)
        set_int(&out, i, counts[i + 1]);
    return out;
}

static PyObject *count_codes(PyObject *module, PyObject *args, PyObject *kwargs)
{
    Py_buffer codes;
    int64_t nclasses, *counts = code_counts(args, kwargs, "OO:count_codes", &codes,
                                            &nclasses);
    PyObject *out;
    if (counts == NULL)
        return NULL;
    out = count_list(counts, nclasses);
    PyBuffer_Release(&codes);
    PyMem_Free(counts);
    return out;
}

static PyObject *group_by_code(PyObject *module, PyObject *args, PyObject *kwargs)
{
    PyObject *counts, *positions = NULL, *result = NULL;
    Py_buffer codes, out = {0};
    int64_t nclasses, *starts, *position;
    Py_ssize_t records, i;

    if ((starts = code_counts(args, kwargs, "OO:group_by_code", &codes, &nclasses)) == NULL)
        return NULL;
    records = codes.len / codes.itemsize;
    counts = count_list(starts, nclasses);
    for (i = 0; i < nclasses; i++)
        starts[i + 1] += starts[i];
    if (counts == NULL || (positions = zero_array("q", records, &out)) == NULL)
        goto done;
    position = out.buf;
    for (i = 0; i < records; i++)
        position[starts[code_at(codes.buf, codes.itemsize, i)]++] = i + 1;
    PyBuffer_Release(&out);
    result = PyTuple_Pack(2, counts, positions);
done:
    PyBuffer_Release(&codes);
    PyMem_Free(starts);
    Py_XDECREF(counts);
    Py_XDECREF(positions);
    return result;
}

/* --- synthesis and CSV rows ---------------------------------------------- */

/* The grouped codes (counts[c] records of class c, classes in order) with
 * ``permutation``'s swaps applied in place: no Python int per record.
 * Like pure.py, whose twin holds one 8-byte list item per record, it
 * raises MemoryError for more than PY_SSIZE_T_MAX / 8 records before
 * allocating anything, which also keeps total * itemsize in range. */
static PyObject *shuffled_codes(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"counts", "seed", NULL};
    PyObject *counts_arg, *seed_arg, *counts, *codes = NULL;
    Py_buffer view;
    Py_ssize_t classes, c;
    int64_t *sizes = NULL, total = 0, at = 0, k;
    uint64_t state;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:shuffled_codes", kwlist,
                                     &counts_arg, &seed_arg)
        || as_u64(seed_arg, &state) < 0
        || (counts = PySequence_Tuple(counts_arg)) == NULL)
        return NULL;
    classes = PyTuple_GET_SIZE(counts);
    if ((sizes = PyMem_Calloc((size_t)classes + 1, sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (c = 0; c < classes; c++)
        if (as_size(PyTuple_GET_ITEM(counts, c), "counts", &sizes[c]) < 0)
            goto done;
    for (c = 0; c < classes; c++) {
        if (sizes[c] > INT64_MAX - total) {
            PyErr_SetString(PyExc_ValueError, "counts must total less than 2**63");
            goto done;
        }
        total += sizes[c];
    }
    if ((uint64_t)classes > UINT64_C(0x100000000)) {
        PyErr_SetString(PyExc_ValueError, "counts must hold at most 2**32 classes");
        goto done;
    }
    if ((uint64_t)total > PY_SSIZE_T_MAX / 8) {
        PyErr_NoMemory();
        goto done;
    }
    if ((codes = code_array(classes, (Py_ssize_t)total, &view)) == NULL)
        goto done;
    for (c = 0; c < classes; c++)
        for (k = 0; k < sizes[c]; k++)
            set_code(view.buf, view.itemsize, at++, (uint64_t)c);
    shuffle(view.buf, view.itemsize, total, state);
    PyBuffer_Release(&view);
done:
    PyMem_Free(sizes);
    Py_DECREF(counts);
    return codes;
}

/* The decimal digits of ``value``, a '-' first when negative, written to
 * end just before ``end``; returns where they start. */
static char *decimal(char *end, int64_t value)
{
    uint64_t magnitude = value < 0 ? 0 - (uint64_t)value : (uint64_t)value;
    do {
        *--end = (char)('0' + magnitude % 10);
        magnitude /= 10;
    } while (magnitude != 0);
    if (value < 0)
        *--end = '-';
    return end;
}

#define DECIMAL_MAX 24 /* room for any int64_t in decimal */

typedef struct {
    PyObject *text;   /* a cell, or the head */
    const char *data; /* its characters at the output's kind */
    char *owned;      /* ``data`` when widened to that kind here, else NULL */
    Py_ssize_t length;
    Py_ssize_t uses;  /* the rows that end in this cell; 1 for the head */
} Cell;

/* ``head``, then row i: the decimal positions[i] (i + 1 without
 * positions) followed by cells[codes[i]].  One pass over the codes checks
 * them and sizes the output, which is then built once, at its exact
 * length and at the narrowest kind that holds the text in use, as
 * CPython keeps a str. */
static PyObject *csv_rows(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"codes", "cells", "positions", "head", NULL};
    PyObject *codes_arg, *cells_arg, *positions_arg = Py_None, *head = NULL,
        *cells = NULL, *out = NULL;
    Py_buffer codes, positions = {0};
    Py_ssize_t ncells = 0, rows, length = 0, at = 0, c, i, k, n;
    Py_UCS4 maxchar = 0x7F;
    Cell *table = NULL, *cell;
    uint64_t code;
    int64_t value;
    char digits[DECIMAL_MAX], *start;
    int kind, cell_kind;
    void *data;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO|OU:csv_rows", kwlist, &codes_arg,
                                     &cells_arg, &positions_arg, &head)
        || get_column(codes_arg, &codes, "BHI",
                      "codes must be a one-dimensional buffer of B, H or I codes") < 0)
        return NULL;
    rows = codes.len / codes.itemsize;
    /* a tuple: nothing that runs during the call can drop a cell */
    if ((cells = PySequence_Tuple(cells_arg)) == NULL)
        goto done;
    ncells = PyTuple_GET_SIZE(cells);
    if ((table = PyMem_Calloc((size_t)ncells + 1, sizeof(Cell))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (c = 0; c < ncells; c++) {
        table[c].text = PyTuple_GET_ITEM(cells, c);
        if (!PyUnicode_Check(table[c].text)) {
            PyErr_Format(PyExc_TypeError, "cells must be str, not %.200s",
                         Py_TYPE(table[c].text)->tp_name);
            goto done;
        }
    }
    cell = &table[ncells];
    cell->text = head;
    cell->uses = head != NULL;
    if (positions_arg != Py_None) {
        if (get_column(positions_arg, &positions, "q",
                       "positions must be a one-dimensional buffer of q ints") < 0)
            goto done;
        if (positions.len / positions.itemsize != rows) {
            PyErr_Format(PyExc_ValueError,
                         "positions and codes differ in length (%zd != %zd)",
                         positions.len / positions.itemsize, rows);
            goto done;
        }
    }
    for (i = 0; i < rows; i++) {
        code = code_at(codes.buf, codes.itemsize, i);
        if (code >= (uint64_t)ncells) {
            PyErr_Format(PyExc_ValueError, "codes must lie in [0, %zd), got %llu", ncells,
                         (unsigned long long)code);
            goto done;
        }
        table[code].uses++;
        if (positions.obj != NULL)
            memcpy(&value, (const char *)positions.buf + 8 * i, 8);
        else
            value = (int64_t)i + 1;
        n = digits + DECIMAL_MAX - decimal(digits + DECIMAL_MAX, value);
        if (length > PY_SSIZE_T_MAX - n) {
            PyErr_NoMemory();
            goto done;
        }
        length += n;
    }
    for (cell = table; cell <= &table[ncells]; cell++) {
        if (cell->uses == 0)
            continue;
        cell->length = PyUnicode_GET_LENGTH(cell->text);
        if (cell->length > 0 && cell->uses > (PY_SSIZE_T_MAX - length) / cell->length) {
            PyErr_NoMemory();
            goto done;
        }
        length += cell->uses * cell->length;
        if (PyUnicode_MAX_CHAR_VALUE(cell->text) > maxchar)
            maxchar = PyUnicode_MAX_CHAR_VALUE(cell->text);
    }
    if ((out = PyUnicode_New(length, maxchar)) == NULL)
        goto done;
    kind = PyUnicode_KIND(out);
    data = PyUnicode_DATA(out);
    for (cell = table; cell <= &table[ncells]; cell++) {
        if (cell->uses == 0)
            continue;
        cell_kind = PyUnicode_KIND(cell->text);
        cell->data = PyUnicode_DATA(cell->text);
        if (cell_kind == kind)
            continue;
        /* a narrower text: kind * length fits, as the output holds it */
        if ((cell->owned = PyMem_Malloc((size_t)(kind * cell->length) + 1)) == NULL) {
            PyErr_NoMemory();
            Py_CLEAR(out);
            goto done;
        }
        for (k = 0; k < cell->length; k++)
            PyUnicode_WRITE(kind, cell->owned, k, PyUnicode_READ(cell_kind, cell->data, k));
        cell->data = cell->owned;
    }
    cell = &table[ncells];
    if (cell->uses > 0)
        memcpy(data, cell->data, (size_t)(kind * cell->length));
    at = cell->length;
    for (i = 0; i < rows; i++) {
        if (positions.obj != NULL)
            memcpy(&value, (const char *)positions.buf + 8 * i, 8);
        else
            value = (int64_t)i + 1;
        start = decimal(digits + DECIMAL_MAX, value);
        n = digits + DECIMAL_MAX - start;
        if (kind == PyUnicode_1BYTE_KIND)
            memcpy((char *)data + at, start, (size_t)n);
        else
            for (k = 0; k < n; k++)
                PyUnicode_WRITE(kind, data, at + k, (Py_UCS4)(unsigned char)start[k]);
        at += n;
        cell = &table[code_at(codes.buf, codes.itemsize, i)];
        memcpy((char *)data + kind * at, cell->data, (size_t)(kind * cell->length));
        at += cell->length;
    }
done:
    for (c = 0; table != NULL && c <= ncells; c++)
        PyMem_Free(table[c].owned);
    PyMem_Free(table);
    if (positions.obj != NULL)
        PyBuffer_Release(&positions);
    PyBuffer_Release(&codes);
    Py_XDECREF(cells);
    return out;
}

/* --- label scanners ------------------------------------------------------- */

/* scan_csv_labels and scan_ndjson_labels read a CSV or NDJSON input from a
 * binary stream, from where it stands to its end, checking its UTF-8 on the
 * way, and return (codes, tokens):
 *   codes   the class code of each record, an array of unsigned ints
 *           ('B', 'H' or 'I', as the number of codes needs);
 *   tokens  a list of bytes, code k's raw label token, codes in order of
 *           first appearance: the CSV field as the csv module reads it,
 *           or the JSON string literal, quotes included.
 * Lines end at \r\n, \r or \n, as in TextIOWrapper(newline=""), and a
 * UTF-8 BOM is skipped at the start.  A scanner returns None for every
 * input it cannot be sure to read as dataset.py's Python parser does,
 * every error among them; that parser, the reference, then reads it.
 *
 * The stream is read with readinto, which may return fewer bytes than it
 * is asked for, into one reused window of WINDOW_SIZE bytes.  A record is
 * scanned once it lies wholly in the bytes read.  When a record reaches
 * their end before the end of the stream (a lone \r, a UTF-8 sequence or
 * JSON escape cut short and fewer than 3 bytes for the BOM check count as
 * such), the rest of the window moves to its front, more is read after
 * it and the record is scanned again from its start.  The window doubles
 * only when one record fills it.  Nothing of the input outlives its
 * window but the label tokens. */

#define WINDOW_SIZE (1 << 20)
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
    PyObject *readinto;        /* the stream's bound method */
    unsigned char *window;     /* the bytes read, up to ``end`` */
    Py_ssize_t size;           /* of ``window`` */
    const unsigned char *end;  /* of the bytes read */
    int eof;                   /* ``end`` is the end of the stream */
    int cut;                   /* the record being read met ``end`` before eof */
    char *codes;               /* one per record, as code_array stores them */
    Py_ssize_t itemsize, records, capacity;
    PyObject *tokens;          /* list of bytes */
    Token *table;              /* code -> token */
    Py_ssize_t distinct;
    uint32_t *slots;           /* open addressing: code + 1, or 0 when empty */
    size_t mask;
    char *scratch;             /* a quoted CSV label with its "" unescaped */
    Py_ssize_t scratch_size;
} Scan;

static void scan_free(Scan *scan)
{
    Py_XDECREF(scan->readinto);
    PyMem_Free(scan->window);
    PyMem_Free(scan->codes);
    Py_XDECREF(scan->tokens);
    PyMem_Free(scan->table);
    PyMem_Free(scan->slots);
    PyMem_Free(scan->scratch);
}

static int scan_init(Scan *scan, PyObject *stream)
{
    memset(scan, 0, sizeof(*scan));
    if ((scan->readinto = PyObject_GetAttrString(stream, "readinto")) == NULL
        || (scan->tokens = PyList_New(0)) == NULL)
        return -1;
    scan->size = WINDOW_SIZE;
    scan->itemsize = 1;
    scan->capacity = 1024;
    scan->mask = 63;
    scan->window = PyMem_Malloc(WINDOW_SIZE);
    scan->end = scan->window;
    scan->codes = PyMem_Malloc(scan->capacity);
    scan->table = PyMem_Malloc((scan->mask + 1) / 2 * sizeof(Token));
    scan->slots = PyMem_Calloc(scan->mask + 1, sizeof(uint32_t));
    if (scan->window == NULL || scan->codes == NULL || scan->table == NULL
        || scan->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* Moves the bytes from *p on to the front of the window, doubling the
 * window when they fill it, and reads more of the stream after them; *p
 * then points at the front.  Sets eof at the end of the stream.  It reads
 * until it has at least as many new bytes as kept ones (or the window is
 * full), so however short the reads, a record is scanned again only a
 * logarithmic number of times. */
static int scan_more(Scan *scan, const unsigned char **p)
{
    Py_ssize_t kept = scan->end - *p, room, got;
    unsigned char *window = scan->window;
    PyObject *view, *result;
    if (kept == scan->size) {
        window = scan->size > PY_SSIZE_T_MAX / 2 ? NULL
                                                 : PyMem_Realloc(window, 2 * scan->size);
        if (window == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        scan->window = window;
        scan->size *= 2;
    } else
        memmove(window, *p, (size_t)kept);
    *p = window;
    scan->end = window + kept;
    do {
        room = scan->size - (scan->end - window);
        view = PyMemoryView_FromMemory((char *)scan->end, room, PyBUF_WRITE);
        if (view == NULL)
            return -1;
        result = PyObject_CallOneArg(scan->readinto, view);
        Py_DECREF(view);
        if (result == NULL)
            return -1;
        got = PyNumber_AsSsize_t(result, PyExc_OverflowError);
        Py_DECREF(result);
        if (got == -1 && PyErr_Occurred())
            return -1;
        if (got < 0 || got > room) {
            PyErr_Format(PyExc_ValueError, "readinto returned %zd for %zd bytes", got,
                         room);
            return -1;
        }
        scan->end += got;
        scan->eof = got == 0;
    } while (!scan->eof && scan->end - window < 2 * kept && got < room);
    return 0;
}

/* Whether fewer than n bytes lie from p to the end of the bytes read.
 * Before the end of the stream that is no answer yet: the record is cut. */
static int short_of(Scan *scan, const unsigned char *p, Py_ssize_t n)
{
    if (scan->end - p >= n)
        return 0;
    scan->cut |= !scan->eof;
    return 1;
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

/* Stores one more record's code in the narrowest code array for the
 * codes so far, widening the codes stored before when it grows. */
static int scan_store(Scan *scan, uint64_t code)
{
    Py_ssize_t itemsize = scan->distinct <= 0x100 ? 1 : scan->distinct <= 0x10000 ? 2 : 4,
               capacity = scan->capacity, i;
    char *codes = scan->codes;
    if (itemsize != scan->itemsize || scan->records == capacity) {
        if (scan->records == capacity)
            capacity *= 2;
        codes = capacity > PY_SSIZE_T_MAX / itemsize ? NULL
                : itemsize == scan->itemsize ? PyMem_Realloc(codes, capacity * itemsize)
                                             : PyMem_Malloc(capacity * itemsize);
        if (codes == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (itemsize != scan->itemsize) {
            for (i = 0; i < scan->records; i++)
                set_code(codes, itemsize, i, code_at(scan->codes, scan->itemsize, i));
            PyMem_Free(scan->codes);
        }
        scan->codes = codes;
        scan->itemsize = itemsize;
        scan->capacity = capacity;
    }
    set_code(codes, itemsize, scan->records++, code);
    return 0;
}

/* Records one more record by its label token.
 * 1 when done, 0 to hand the input over (codes past uint32), -1 on error. */
static int scan_push(Scan *scan, const char *bytes, Py_ssize_t length)
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
        entry = PyBytes_FromStringAndSize(bytes, length);
        if (entry == NULL || PyList_Append(scan->tokens, entry) < 0) {
            Py_XDECREF(entry);
            return -1;
        }
        Py_DECREF(entry); /* ``tokens`` holds it */
        token = &scan->table[scan->distinct];
        token->hash = hash;
        token->bytes = PyBytes_AS_STRING(entry);
        token->length = length;
        slot = scan->slots[k] = (uint32_t)++scan->distinct;
    }
    return scan_store(scan, slot - 1) < 0 ? -1 : 1;
}

/* The scanner's (codes, tokens). */
static PyObject *scan_result(Scan *scan)
{
    Py_buffer view;
    PyObject *codes = code_array(scan->distinct, scan->records, &view), *result;
    if (codes == NULL)
        return NULL;
    memcpy(view.buf, scan->codes, (size_t)(scan->records * scan->itemsize));
    PyBuffer_Release(&view);
    result = PyTuple_Pack(2, codes, scan->tokens);
    Py_DECREF(codes);
    return result;
}

/* Length of the UTF-8 sequence whose lead byte (>= 0x80) is at p, or 0
 * where Python's strict decoder fails: a stray or truncated sequence, an
 * overlong form, an encoded surrogate (ED A0..BF) or a code point past
 * U+10FFFF. */
static Py_ssize_t utf8_sequence(Scan *scan, const unsigned char *p)
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
    if (short_of(scan, p, length) || p[1] < lo || p[1] > hi)
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

/* Past the line break at p: \r\n, \r or \n. */
static const unsigned char *skip_break(Scan *scan, const unsigned char *p)
{
    return p + (*p == '\r' && !short_of(scan, p, 2) && p[1] == '\n' ? 2 : 1);
}

/* What a record reader found at *p; a reader also returns 0 to hand the
 * input over and -1 on error.  It moves *p past what it read only when it
 * found a record or a blank line. */
enum { AT_RECORD = 1, AT_BLANK_LINE, AT_END };

typedef struct {
    const char *bytes;
    Py_ssize_t length;
} Bytes;

/* Reads the record at *p, its label token to *label. */
typedef int (*RecordReader)(Scan *scan, const unsigned char **p, const void *format,
                            Bytes *label);

typedef struct {
    Py_ssize_t label_index, width, field_limit;
} CsvFormat;

/* A CSV record in the csv module's default dialect: ',' between fields,
 * '"' quotes and "" inside quotes for one quote.  Hands over on a NUL, a
 * '"' in an unquoted field, text after a closing quote, a quote left open,
 * a field of more than field_limit bytes (its characters may still fit)
 * and a record of other than ``width`` fields.  A line holding no bytes
 * is a blank line, no record. */
static int csv_record(Scan *scan, const unsigned char **at, const void *format_arg,
                      Bytes *label)
{
    const CsvFormat *format = format_arg;
    const unsigned char *p = *at, *field, *text = NULL;
    Py_ssize_t fields, length, text_length = 0, n, i, j;
    int quoted, escaped, text_escaped = 0;
    if (short_of(scan, p, 1))
        return AT_END;
    if (*p == '\r' || *p == '\n') {
        *at = skip_break(scan, p);
        return AT_BLANK_LINE;
    }
    for (fields = 0;; fields++) {
        quoted = !short_of(scan, p, 1) && *p == '"';
        escaped = 0;
        field = p + quoted;
        for (p = field; !short_of(scan, p, 1); ) {
            if (csv_plain[*p])
                p++;
            else if (*p == '"') {
                if (!quoted)
                    return 0;
                if (!short_of(scan, p, 2) && p[1] == '"') {
                    escaped = 1;
                    p += 2;
                    continue;
                }
                break;
            } else if (*p == ',' || *p == '\r' || *p == '\n') {
                if (!quoted)
                    break;
                p++;
            } else if (*p == 0)
                return 0;
            else if ((n = utf8_sequence(scan, p)) > 0)
                p += n;
            else
                return 0;
        }
        length = p - field;
        if (length > format->field_limit) {
            scan->cut = 0; /* more bytes only lengthen the field */
            return 0;
        }
        if (quoted && short_of(scan, p++, 1))
            return 0;
        if (fields == format->label_index) {
            text = field;
            text_length = length;
            text_escaped = escaped;
        }
        if (short_of(scan, p, 1) || *p != ',')
            break;
        p++;
    }
    if (!short_of(scan, p, 1)) {
        if (*p != '\r' && *p != '\n')
            return 0;
        p = skip_break(scan, p);
    }
    if (fields + 1 != format->width)
        return 0;
    if (text_escaped) {
        if (text_length > scan->scratch_size) {
            char *scratch = PyMem_Realloc(scan->scratch, text_length);
            if (scratch == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            scan->scratch = scratch;
            scan->scratch_size = text_length;
        }
        for (i = j = 0; i < text_length; i++, j++) {
            scan->scratch[j] = (char)text[i];
            if (text[i] == '"')
                i++; /* the second quote of "" */
        }
        text = (const unsigned char *)scan->scratch;
        text_length = j;
    }
    label->bytes = (const char *)text;
    label->length = text_length;
    *at = p;
    return AT_RECORD;
}

static void json_space(Scan *scan, const unsigned char **p)
{
    while (!short_of(scan, *p, 1) && (**p == ' ' || **p == '\t'))
        (*p)++;
}

static int hex_digit(unsigned char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/* The string whose opening quote is at *p, as json.loads reads it in
 * strict mode; *escaped says whether it holds a backslash. */
static int json_string(Scan *scan, const unsigned char **p, int *escaped)
{
    const unsigned char *q = *p + 1;
    Py_ssize_t n;
    *escaped = 0;
    while (!short_of(scan, q, 1) && *q != '"') {
        if (json_plain[*q])
            q++;
        else if (*q == '\\') {
            *escaped = 1;
            if (!short_of(scan, q, 6) && q[1] == 'u' && hex_digit(q[2]) && hex_digit(q[3])
                && hex_digit(q[4]) && hex_digit(q[5]))
                q += 6;
            else if (!short_of(scan, q, 2) && q[1] != 0 && strchr("\"\\/bfnrt", q[1]) != NULL)
                q += 2;
            else
                return 0;
        } else if (*q < 0x20)
            return 0;
        else if ((n = utf8_sequence(scan, q)) > 0)
            q += n;
        else
            return 0;
    }
    if (short_of(scan, q, 1))
        return 0;
    *p = q + 1;
    return 1;
}

static int json_digits(Scan *scan, const unsigned char **p)
{
    const unsigned char *first = *p;
    while (!short_of(scan, *p, 1) && **p >= '0' && **p <= '9')
        (*p)++;
    return *p > first;
}

/* The next byte is ``c``. */
static int json_next(Scan *scan, const unsigned char *p, unsigned char c)
{
    return !short_of(scan, p, 1) && *p == c;
}

/* A number in the JSON grammar; NaN, Infinity and -Infinity hand over. */
static int json_number(Scan *scan, const unsigned char **p)
{
    const unsigned char *digits;
    if (json_next(scan, *p, '-'))
        (*p)++;
    digits = *p;
    if (json_next(scan, *p, '0'))
        (*p)++;
    else if (!json_digits(scan, p) || *p - digits > JSON_MAX_INT_DIGITS)
        return 0;
    if (json_next(scan, *p, '.')) {
        (*p)++;
        if (!json_digits(scan, p))
            return 0;
    }
    if (!short_of(scan, *p, 1) && (**p == 'e' || **p == 'E')) {
        (*p)++;
        if (!short_of(scan, *p, 1) && (**p == '+' || **p == '-'))
            (*p)++;
        if (!json_digits(scan, p))
            return 0;
    }
    return 1;
}

static int json_literal(Scan *scan, const unsigned char **p, const char *word)
{
    size_t length = strlen(word);
    if (short_of(scan, *p, (Py_ssize_t)length) || memcmp(*p, word, length) != 0)
        return 0;
    *p += length;
    return 1;
}

static int json_container(Scan *scan, const unsigned char **p, int depth,
                          const char *key, Py_ssize_t key_length,
                          const unsigned char **label, const unsigned char **label_end);

static int json_value(Scan *scan, const unsigned char **p, int depth)
{
    int escaped;
    if (short_of(scan, *p, 1))
        return 0;
    switch (**p) {
    case '{':
    case '[':
        return json_container(scan, p, depth + 1, NULL, 0, NULL, NULL);
    case '"':
        return json_string(scan, p, &escaped);
    case 't':
        return json_literal(scan, p, "true");
    case 'f':
        return json_literal(scan, p, "false");
    case 'n':
        return json_literal(scan, p, "null");
    default:
        return json_number(scan, p);
    }
}

/* The object or array at *p, which is ``depth`` levels deep.  With a key
 * (the top-level object), *label..*label_end is the string literal of
 * the last member so named, as json.loads keeps the last duplicate key.
 * Hands over on a member of that name that is not a string, and on a
 * member name holding an escape, which may decode to that name. */
static int json_container(Scan *scan, const unsigned char **p, int depth,
                          const char *key, Py_ssize_t key_length,
                          const unsigned char **label, const unsigned char **label_end)
{
    const unsigned char *name;
    unsigned char close = **p == '{' ? '}' : ']';
    int escaped, labelled;
    if (depth > JSON_MAX_DEPTH)
        return 0;
    (*p)++;
    json_space(scan, p);
    if (json_next(scan, *p, close)) {
        (*p)++;
        return 1;
    }
    for (;;) {
        labelled = 0;
        if (close == '}') {
            name = *p;
            if (!json_next(scan, *p, '"') || !json_string(scan, p, &escaped))
                return 0;
            if (key != NULL && escaped)
                return 0;
            labelled = key != NULL && *p - name - 2 == key_length
                       && memcmp(name + 1, key, (size_t)key_length) == 0;
            json_space(scan, p);
            if (!json_next(scan, *p, ':'))
                return 0;
            (*p)++;
            json_space(scan, p);
        }
        if (labelled) {
            *label = *p;
            if (!json_next(scan, *p, '"') || !json_string(scan, p, &escaped))
                return 0;
            *label_end = *p;
        } else if (!json_value(scan, p, depth))
            return 0;
        json_space(scan, p);
        if (short_of(scan, *p, 1) || (**p != ',' && **p != close))
            return 0;
        if (*(*p)++ == close)
            return 1;
        json_space(scan, p);
    }
}

/* An NDJSON line: one JSON object, or spaces and tabs only, a blank line.
 * Hands over on any other line, on an object that lacks the key, on
 * nesting past JSON_MAX_DEPTH and on an int of more than
 * JSON_MAX_INT_DIGITS digits. */
static int ndjson_record(Scan *scan, const unsigned char **at, const void *key_arg,
                         Bytes *label)
{
    const Bytes *key = key_arg;
    const unsigned char *p = *at, *text = NULL, *text_end = NULL;
    int found = AT_BLANK_LINE;
    if (short_of(scan, p, 1))
        return AT_END;
    json_space(scan, &p);
    if (json_next(scan, p, '{')) {
        if (!json_container(scan, &p, 1, key->bytes, key->length, &text, &text_end)
            || text == NULL)
            return 0;
        label->bytes = (const char *)text;
        label->length = text_end - text;
        found = AT_RECORD;
        json_space(scan, &p);
    }
    if (!short_of(scan, p, 1)) {
        if (*p != '\r' && *p != '\n')
            return 0;
        p = skip_break(scan, p);
    }
    *at = p;
    return found;
}

/* ``read``'s outcome at *p, read again from the record's start after
 * reading more of the stream while the bytes read so far cut the record. */
static int scan_record(Scan *scan, const unsigned char **p, RecordReader read,
                       const void *format, Bytes *label)
{
    const unsigned char *start;
    int outcome;
    for (;;) {
        start = *p;
        scan->cut = 0;
        outcome = read(scan, p, format, label);
        if (outcome < 0 || !scan->cut)
            return outcome;
        *p = start;
        if (scan_more(scan, p) < 0)
            return -1;
    }
}

/* Reads the stream to its end with ``read`` and records each record's
 * label; with ``header`` the first record is a header, which is not
 * recorded and which no blank line may precede.
 * 1 when read, 0 to hand over (also on no records), -1 on error. */
static int scan_stream(Scan *scan, RecordReader read, const void *format, int header)
{
    const unsigned char *p = scan->window;
    Bytes label;
    int outcome;
    while (scan->end - p < 3 && !scan->eof)
        if (scan_more(scan, &p) < 0)
            return -1;
    if (scan->end - p >= 3 && memcmp(p, "\xEF\xBB\xBF", 3) == 0)
        p += 3;
    while ((outcome = scan_record(scan, &p, read, format, &label)) > 0) {
        if (outcome == AT_END)
            return scan->records > 0;
        if (header) {
            if (outcome == AT_BLANK_LINE)
                return 0;
            header = 0;
        } else if (outcome == AT_RECORD
                   && (outcome = scan_push(scan, label.bytes, label.length)) <= 0)
            return outcome;
    }
    return outcome;
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
    static char *kwlist[] = {"stream", "label_index", "width", "field_limit", NULL};
    PyObject *stream;
    CsvFormat format;
    Scan scan;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Onnn:scan_csv_labels", kwlist, &stream,
                                     &format.label_index, &format.width,
                                     &format.field_limit))
        return NULL;
    if (format.label_index < 0 || format.label_index >= format.width) {
        PyErr_SetString(PyExc_ValueError, "label_index must lie in [0, width)");
        return NULL;
    }
    return scan_finish(&scan, scan_init(&scan, stream) < 0
                                  ? -1
                                  : scan_stream(&scan, csv_record, &format, 1));
}

static PyObject *scan_ndjson_labels(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"stream", "key", NULL};
    PyObject *stream, *key_arg;
    Bytes key;
    Scan scan;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OU:scan_ndjson_labels", kwlist,
                                     &stream, &key_arg))
        return NULL;
    key.bytes = PyUnicode_AsUTF8AndSize(key_arg, &key.length);
    if (key.bytes == NULL) {
        /* a lone surrogate, which only an escaped member name can match */
        if (!PyErr_ExceptionMatches(PyExc_UnicodeEncodeError))
            return NULL;
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    return scan_finish(&scan, scan_init(&scan, stream) < 0
                                  ? -1
                                  : scan_stream(&scan, ndjson_record, &key, 0));
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
    KERNEL(count_codes, "The number of records of each class code."),
    KERNEL(group_by_code,
           "Stable counting sort of class codes: per-code counts and the 1-based "
           "positions grouped by code."),
    KERNEL(shuffled_codes,
           "The grouped class codes of ``counts`` shuffled by ``permutation``, "
           "in the narrowest unsigned array."),
    KERNEL(csv_rows,
           "``head``, then one CSV row per code: the decimal position, then "
           "``cells[code]``."),
    KERNEL(scan_csv_labels,
           "Class codes and distinct label tokens of a CSV stream, or None."),
    KERNEL(scan_ndjson_labels,
           "Class codes and distinct label tokens of an NDJSON stream, or None."),
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
    fill_plain_tables();
    return PyModule_Create(&native_module);
}
