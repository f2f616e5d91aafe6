/* Compiled bitset kernels.  _kernels_py.py holds the reference versions;
   each function here takes the same arguments and returns the same witness
   tuple, or None.  Masks arrive as Python ints and are unpacked once into
   rows of `words` little-endian uint64 words.  A mask with a bit outside
   its row, or a product outside [0, n), raises instead of being followed
   out of the table.  Build: python setup.py build_ext --inplace */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define POPCOUNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)

/* out[i*words .. (i+1)*words) = the i-th of the first `count` ints of
   `seq`, each of which must lie in [0, 2**nbits). */
static int
pack(PyObject *seq, Py_ssize_t count, Py_ssize_t words, Py_ssize_t nbits,
     u64 *out)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of masks");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) < count) {
        PyErr_SetString(PyExc_IndexError, "too few masks");
        goto fail;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *m = PySequence_Fast_GET_ITEM(fast, i);
        if (!PyLong_Check(m)) {
            PyErr_SetString(PyExc_TypeError, "masks must be ints");
            goto fail;
        }
        /* OverflowError for a negative mask or one wider than the row */
        PyObject *b = PyObject_CallMethod(m, "to_bytes", "ns",
                                          words * 8, "little");
        if (b == NULL)
            goto fail;
        const unsigned char *s = (const unsigned char *)PyBytes_AS_STRING(b);
        u64 *row = out + i * words;
        for (Py_ssize_t w = 0; w < words; w++) {
            row[w] = 0;
            for (int k = 7; k >= 0; k--)
                row[w] = row[w] << 8 | s[8 * w + k];
        }
        Py_DECREF(b);
        if (nbits < words * 64 && row[words - 1] >> (nbits & 63)) {
            PyErr_Format(PyExc_ValueError, "mask has a bit at or above %zd",
                         nbits);
            goto fail;
        }
    }
    Py_DECREF(fast);
    return 0;
fail:
    Py_DECREF(fast);
    return -1;
}

/* The n*n masks rows[x][y], each below 2**n, as one table of
   n*n*words words; NULL with an exception set on failure. */
static u64 *
pack_table(PyObject *rows, Py_ssize_t n, Py_ssize_t words)
{
    u64 *tab = NULL;
    PyObject *fast = PySequence_Fast(rows, "expected a sequence of rows");
    if (fast == NULL)
        return NULL;
    /* n rows of n masks exist, so n * n * words cannot overflow */
    if (PySequence_Fast_GET_SIZE(fast) < n) {
        PyErr_SetString(PyExc_IndexError, "too few rows");
        goto fail;
    }
    tab = PyMem_Calloc(n * n * words, sizeof(u64));
    if (tab == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t x = 0; x < n; x++)
        if (pack(PySequence_Fast_GET_ITEM(fast, x), n, words, n,
                 tab + x * n * words) < 0)
            goto fail;
    Py_DECREF(fast);
    return tab;
fail:
    PyMem_Free(tab);
    Py_DECREF(fast);
    return NULL;
}

/* The n*n multiplication table mul[u][v], each entry in [0, n). */
static Py_ssize_t *
pack_indices(PyObject *mul, Py_ssize_t n)
{
    Py_ssize_t *tab = PyMem_Calloc(n * n, sizeof(Py_ssize_t));
    if (tab == NULL)
        return (Py_ssize_t *)PyErr_NoMemory();
    for (Py_ssize_t u = 0; u < n; u++) {
        PyObject *row = PySequence_GetItem(mul, u);
        if (row == NULL)
            goto fail;
        for (Py_ssize_t v = 0; v < n; v++) {
            PyObject *item = PySequence_GetItem(row, v);
            Py_ssize_t k = item ? PyLong_AsSsize_t(item) : -1;
            Py_XDECREF(item);
            if (k < 0 || k >= n) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError,
                                    "product outside the carrier");
                Py_DECREF(row);
                goto fail;
            }
            tab[u * n + v] = k;
        }
        Py_DECREF(row);
    }
    return tab;
fail:
    PyMem_Free(tab);
    return NULL;
}

/* acc |= the union of tab[base(i)] over the bits i of the mask `m`, where
   base(i) = i*stride + offset counts rows of `words` words. */
static void
union_rows(const u64 *tab, const u64 *m, Py_ssize_t stride,
           Py_ssize_t offset, Py_ssize_t words, u64 *acc)
{
    for (Py_ssize_t w = 0; w < words; w++)
        for (u64 bits = m[w]; bits; bits &= bits - 1) {
            Py_ssize_t i = (w << 6) + CTZ(bits);
            const u64 *row = tab + (i * stride + offset) * words;
            for (Py_ssize_t k = 0; k < words; k++)
                acc[k] |= row[k];
        }
}

static PyObject *
assoc_witness(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *rows, *result = NULL;
    if (!PyArg_ParseTuple(args, "nO", &n, &rows))
        return NULL;
    if (n <= 0)
        Py_RETURN_NONE;
    Py_ssize_t words = (n + 63) / 64;
    u64 *tab = pack_table(rows, n, words);
    u64 *acc = PyMem_Calloc(2 * words, sizeof(u64));
    if (tab == NULL || acc == NULL) {
        if (tab != NULL)
            PyErr_NoMemory();
        goto done;
    }
    u64 *left = acc, *right = acc + words;
    for (Py_ssize_t x = 0; x < n; x++)
        for (Py_ssize_t y = 0; y < n; y++)
            for (Py_ssize_t z = 0; z < n; z++) {
                memset(acc, 0, 2 * words * sizeof(u64));
                /* (x+y)+z: union over s in x+y of s+z */
                union_rows(tab, tab + (x * n + y) * words, n, z, words, left);
                /* x+(y+z): union over s in y+z of x+s */
                union_rows(tab, tab + (y * n + z) * words, 1, x * n, words,
                           right);
                if (memcmp(left, right, words * sizeof(u64))) {
                    result = Py_BuildValue("nnn", x, y, z);
                    goto done;
                }
            }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(tab);
    PyMem_Free(acc);
    return result;
}

static PyObject *
distrib_witness(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *rows, *mul, *result = NULL;
    if (!PyArg_ParseTuple(args, "nOO", &n, &rows, &mul))
        return NULL;
    if (n <= 0)
        Py_RETURN_NONE;
    Py_ssize_t words = (n + 63) / 64;
    u64 *tab = pack_table(rows, n, words);
    Py_ssize_t *mt = tab ? pack_indices(mul, n) : NULL;
    u64 *left = PyMem_Calloc(words, sizeof(u64));
    if (tab == NULL || mt == NULL || left == NULL) {
        if (mt != NULL)
            PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t u = 0; u < n; u++) {
        const Py_ssize_t *mu = mt + u * n;
        for (Py_ssize_t v = 0; v < n; v++)
            for (Py_ssize_t w = 0; w < n; w++) {
                /* u(v+w): the products u*s over s in v+w */
                memset(left, 0, words * sizeof(u64));
                const u64 *vw = tab + (v * n + w) * words;
                for (Py_ssize_t k = 0; k < words; k++)
                    for (u64 bits = vw[k]; bits; bits &= bits - 1) {
                        Py_ssize_t s = mu[(k << 6) + CTZ(bits)];
                        left[s >> 6] |= (u64)1 << (s & 63);
                    }
                /* uv + uw */
                if (memcmp(left, tab + (mu[v] * n + mu[w]) * words,
                           words * sizeof(u64))) {
                    result = Py_BuildValue("nnn", u, v, w);
                    goto done;
                }
            }
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(tab);
    PyMem_Free(mt);
    PyMem_Free(left);
    return result;
}

static PyObject *
line_pair_witness(PyObject *self, PyObject *args)
{
    PyObject *masks, *fast, *result = NULL;
    Py_ssize_t lo, hi, nbits = 0;
    u64 *tab = NULL;
    if (!PyArg_ParseTuple(args, "Onn", &masks, &lo, &hi))
        return NULL;
    fast = PySequence_Fast(masks, "expected a sequence of masks");
    if (fast == NULL)
        return NULL;
    Py_ssize_t L = PySequence_Fast_GET_SIZE(fast);
    for (Py_ssize_t i = 0; i < L; i++) {
        PyObject *len = PyObject_CallMethod(PySequence_Fast_GET_ITEM(fast, i),
                                            "bit_length", NULL);
        Py_ssize_t bits = len ? PyLong_AsSsize_t(len) : -1;
        Py_XDECREF(len);
        if (bits < 0)
            goto done;
        if (bits > nbits)
            nbits = bits;
    }
    Py_ssize_t words = (nbits + 63) / 64;
    tab = PyMem_Calloc(L * words, sizeof(u64));
    if (tab == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (pack(fast, L, words, words * 64, tab) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < L; i++)
        for (Py_ssize_t j = i + 1; j < L; j++) {
            /* the whole count, as the reference reports it */
            Py_ssize_t c = 0;
            for (Py_ssize_t w = 0; w < words; w++)
                c += POPCOUNT(tab[i * words + w] & tab[j * words + w]);
            if (c < lo || c > hi) {
                result = Py_BuildValue("nnn", i, j, c);
                goto done;
            }
        }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(tab);
    Py_DECREF(fast);
    return result;
}

static PyObject *
coverage_witness(PyObject *self, PyObject *args)
{
    Py_ssize_t npoints;
    PyObject *masks, *result = NULL;
    if (!PyArg_ParseTuple(args, "nO", &npoints, &masks))
        return NULL;
    Py_ssize_t L = PySequence_Size(masks);
    if (L < 0)
        return NULL;
    if (npoints <= 0)
        Py_RETURN_NONE;
    Py_ssize_t words = (npoints + 63) / 64;
    if (words > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(u64) / (npoints + L))
        return PyErr_NoMemory();
    u64 *tab = PyMem_Calloc(L * words, sizeof(u64));
    u64 *reach = PyMem_Calloc(npoints * words, sizeof(u64));
    if (tab == NULL || reach == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (pack(masks, L, words, npoints, tab) < 0)
        goto done;
    /* reach[p]: the union of the lines through p */
    for (Py_ssize_t i = 0; i < L; i++)
        for (Py_ssize_t w = 0; w < words; w++)
            for (u64 bits = tab[i * words + w]; bits; bits &= bits - 1) {
                u64 *r = reach + ((w << 6) + CTZ(bits)) * words;
                for (Py_ssize_t k = 0; k < words; k++)
                    r[k] |= tab[i * words + k];
            }
    for (Py_ssize_t p = 0; p < npoints; p++)
        for (Py_ssize_t w = 0; w < words; w++) {
            u64 missing = ~reach[p * words + w];
            if (w == words - 1 && (npoints & 63))
                missing &= ((u64)1 << (npoints & 63)) - 1;
            if ((p >> 6) == w)
                missing &= ~((u64)1 << (p & 63));
            if (missing) {
                result = Py_BuildValue("nn", p, (w << 6) + CTZ(missing));
                goto done;
            }
        }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(tab);
    PyMem_Free(reach);
    return result;
}

static PyMethodDef methods[] = {
    {"assoc_witness", assoc_witness, METH_VARARGS,
     "First (x, y, z) with (x+y)+z != x+(y+z), or None."},
    {"distrib_witness", distrib_witness, METH_VARARGS,
     "First (u, v, w) with u(v+w) != uv + uw, or None."},
    {"line_pair_witness", line_pair_witness, METH_VARARGS,
     "First line pair (i, j, size) whose intersection size is outside "
     "[lo, hi], or None."},
    {"coverage_witness", coverage_witness, METH_VARARGS,
     "First point pair on no common line, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "singer._kernels", .m_size = -1,
    .m_doc = "Compiled bitset kernels; singer._kernels_py is the reference.",
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
