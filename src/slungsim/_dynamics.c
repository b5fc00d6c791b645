/* The compiled code of slungsim: one control tick of
   slungsim.simloop.advance_tick, and the text of a block of trace rows.

   fused_tick runs the n_sub RK4 steps of
   slungsim.dynamics.coupled_derivative_array, the non-finite check and
   the cable offset, on C arrays.  The model is not written here:
   slungsim.dynamics translates that function into derivative() below,
   each operation parenthesised in its syntax tree's order, and builds
   the result with -O2 -ffp-contract=off -fPIC and no flag that lets the
   compiler reassociate, fuse or widen float arithmetic.  So each
   operation rounds as Python's does, there and in the RK4 update and
   cable test, which copy rk4_step and cable_offset.  fused_tick hands a
   tick back (returns None) where a guard fails in a stage, the final
   state is non-finite or slack, or an input is not read; advance_tick
   then runs its Python loop from the same state, which raises its own
   exception with its own message.  A division by zero is handed back
   because it ends non-finite: its IEEE 754 quotient is an inf or a NaN,
   which add, subtract, multiply and divide keep non-finite except as a
   divisor (x / inf is 0), and the model's one divisor formed from a
   quotient, its Cramer determinant, is inf or NaN only where mu and
   U1 / M are too (M = 0).  So it leaves a rate, and the state, non-finite.

   Only lists and tuples of exact floats, of lengths 16 and 4, an exact
   float m_L, a params.derived tuple of 11 exact floats, an exact float
   dt > 0 and an exact int n_sub of at least 1 are read here.  For any
   other input (an ndarray, ints, numpy scalars) fused_tick returns None
   too, and the Python loop's arithmetic follows those types' own rules:
   numpy scalars, for one, warn where Python floats raise.

   format_rows writes what slungsim.cli.write_trace's `%` of "%.17g,"
   per value and "%d\n" per flag writes, through PyOS_double_to_string,
   the function `%` calls, so the text is the same by construction.  It
   hands a block back (returns None) where the block is not a 2-D
   C-contiguous float64 buffer or a flag is not 0 or 1; `%` then writes
   what it writes, or raises what it raises.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Copy the values of the n entries of seq to out; 0 if seq is not an
   exact list or tuple of n exact floats. */
static int
read_floats(PyObject *seq, Py_ssize_t n, double *out)
{
    if (!(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
            || PySequence_Fast_GET_SIZE(seq) != n)
        return 0;
    PyObject *const *items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyFloat_CheckExact(items[i]))
            return 0;
        out[i] = PyFloat_AS_DOUBLE(items[i]);
    }
    return 1;
}

/* A new tuple of the 16 floats in v; NULL if out of memory */
static PyObject *
new_floats(const double *v)
{
    PyObject *out = PyTuple_New(16);
    for (int i = 0; out != NULL && i < 16; i++) {
        PyObject *item = PyFloat_FromDouble(v[i]);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, item);
    }
    return out;
}

/* derivative(), 0 where it raises: put here by dynamics._kernel_source */
@derivative@

/* stage = y + c * k, element by element, as rk4_step forms it */
static void
stage(const double *y, double c, const double *k, double *out)
{
    for (int i = 0; i < 16; i++)
        out[i] = y[i] + c * k[i];
}

static PyObject *
fused_tick(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double y[16], u[4], d[11], k1[16], k2[16], k3[16], k4[16], ys[16];

    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError,
                     "fused_tick expected 6 arguments, got %zd", nargs);
        return NULL;
    }
    if (!read_floats(args[0], 16, y) || !read_floats(args[1], 4, u)
            || !PyFloat_CheckExact(args[2]) || !read_floats(args[3], 11, d)
            || !PyFloat_CheckExact(args[4]) || !PyLong_CheckExact(args[5]))
        Py_RETURN_NONE;
    double m_L = PyFloat_AS_DOUBLE(args[2]), dt = PyFloat_AS_DOUBLE(args[4]);
    long n_sub = PyLong_AsLong(args[5]);
    if (n_sub == -1 && PyErr_Occurred())
        PyErr_Clear();
    if (!(dt > 0.0) || n_sub < 1)
        Py_RETURN_NONE;

    double h = 0.5 * dt;
    double w = dt / 6.0;
    for (long step = 0; step < n_sub; step++) {
        if (!derivative(y, u, m_L, d, k1))
            Py_RETURN_NONE;
        stage(y, h, k1, ys);
        if (!derivative(ys, u, m_L, d, k2))
            Py_RETURN_NONE;
        stage(y, h, k2, ys);
        if (!derivative(ys, u, m_L, d, k3))
            Py_RETURN_NONE;
        stage(y, dt, k3, ys);
        if (!derivative(ys, u, m_L, d, k4))
            Py_RETURN_NONE;
        for (int i = 0; i < 16; i++)
            y[i] = y[i] + w * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);
    }
    for (int i = 0; i < 16; i++)
        if (!isfinite(y[i]))
            Py_RETURN_NONE;
    /* cable_offset's zsq and floor test, with L^2 and floor^2 derived */
    double zsq = d[1] - y[12] * y[12] - y[13] * y[13];
    if (zsq <= d[2])
        Py_RETURN_NONE;

    PyObject *state = new_floats(y);
    return state == NULL ? NULL : Py_BuildValue("(Nd)", state, sqrt(zsq));
}

/* The longest text of PyOS_double_to_string(x, 'g', 17, 0, NULL): a sign,
   17 digits, a point and a four-character exponent */
#define VALUE_MAX 24

static PyObject *
format_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    PyObject *text = NULL;
    char *buf = NULL;

    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "format_rows expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    if (!PyObject_CheckBuffer(args[0]) || !PyLong_CheckExact(args[1]))
        Py_RETURN_NONE;
    Py_ssize_t n_cols = PyLong_AsSsize_t(args[1]);
    if (n_cols == -1 && PyErr_Occurred())
        PyErr_Clear();
    if (PyObject_GetBuffer(args[0], &view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    if (view.ndim != 2 || view.itemsize != 8 || view.format == NULL
            || strcmp(view.format, "d") != 0
            || !PyBuffer_IsContiguous(&view, 'C')
            || n_cols < 1 || n_cols > view.shape[1]
            || n_cols > PY_SSIZE_T_MAX / (VALUE_MAX + 1))
        goto hand_back;
    /* the longest text of a row: each value and its comma, then the flag
       and the newline */
    Py_ssize_t row_max = (n_cols - 1) * (VALUE_MAX + 1) + 2;
    if (view.shape[0] > (PY_SSIZE_T_MAX - 1) / row_max)
        goto hand_back;
    const double *x = view.buf;
    Py_ssize_t n_rows = view.shape[0], width = view.shape[1];
    char *end = buf = PyMem_Malloc(n_rows * row_max + 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (const double *row = x; row < x + n_rows * width; row += width) {
        double flag = row[n_cols - 1];
        if (!(flag == 0.0 || flag == 1.0))
            goto hand_back;
        for (Py_ssize_t j = 0; j < n_cols - 1; j++) {
            char *s = PyOS_double_to_string(row[j], 'g', 17, 0, NULL);
            if (s == NULL)
                goto done;
            size_t len = strlen(s);
            /* never true: a longer text would overrun buf */
            if (len > VALUE_MAX) {
                PyMem_Free(s);
                goto hand_back;
            }
            memcpy(end, s, len);
            PyMem_Free(s);
            end += len;
            *end++ = ',';
        }
        *end++ = flag == 0.0 ? '0' : '1';
        *end++ = '\n';
    }
    text = PyUnicode_New(end - buf, 127);
    if (text != NULL)
        memcpy(PyUnicode_1BYTE_DATA(text), buf, end - buf);
    goto done;
hand_back:
    Py_INCREF(Py_None);
    text = Py_None;
done:
    PyMem_Free(buf);
    PyBuffer_Release(&view);
    return text;
}

static PyMethodDef methods[] = {
    {"fused_tick", (PyCFunction)(void (*)(void))fused_tick, METH_FASTCALL,
     "fused_tick(y, u, m_L, derived, dt, n_sub)\n--\n\n"
     "One control tick: n_sub RK4 steps of the coupled derivative, u held,\n"
     "then the non-finite check and the cable offset.  Returns\n"
     "(state tuple, zeta) with the Python loop's bits, or None where that\n"
     "loop would raise or this module does not read the input."},
    {"format_rows", (PyCFunction)(void (*)(void))format_rows, METH_FASTCALL,
     "format_rows(block, n_cols)\n--\n\n"
     "The trace text of a 2-D C-contiguous float64 block: per row, its\n"
     "first n_cols - 1 values as \"%.17g,\" and value n_cols - 1, 0 or 1,\n"
     "as \"%d\\n\".  Returns the str `%` gives, or None where the block\n"
     "or a flag is outside that."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_dynamics",
    "One control tick of slungsim.simloop.advance_tick, its model translated\n"
    "from Python, and the text of a block of trace rows, compiled.",
    0, methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__dynamics(void)
{
    return PyModuleDef_Init(&module_def);
}
