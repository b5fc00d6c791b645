/* The compiled code of slungsim: one control tick of
   slungsim.simloop.advance_tick, the text of a block of trace rows, and
   the values of a block of trace lines.

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
   per value and "%d\n" per flag writes.  "%.17g" is the value's decimal
   correctly rounded to 17 significant digits, ties to even, as the dtoa
   behind `%` rounds it, in format_float_short's %g layout: exponent
   notation where the decimal exponent is below -4 or above 16, trailing
   zeros stripped, no point where no digit follows it.  A double has one
   such decimal, so any exact computation of it gives `%`'s bytes.
   exact_g17 computes it with integer arithmetic for +-0 and each normal
   value whose 17 digits are x 10^q with q in [0, 55], that is
   2^-129 (about 1.5e-39) <= |x| < 1e17; subnormals, infinities, NaNs
   and the values outside that range go to PyOS_double_to_string, the
   function `%` calls, as does every value where the compiler has no
   unsigned __int128.  format_rows formats every column of the block it
   is given, a view included, the last one as the flag.  It hands a block
   back (returns None) where the block is not a 2-D float64 buffer whose
   values in a row are adjacent, or a flag is not 0 or 1; `%` then
   writes what it writes, or raises what it raises.

   parse_rows reads what slungsim.cli.read_trace's blocks of lines hold
   where write_trace wrote them: each line exactly n_cols fields, one ','
   between fields and a '\n' after the last, each field -?, digits with
   at most one '.' among them (at least one digit), then an optional
   [eE][+-]?digits.  A value is the decimal w 10^e, w its significant
   digits.  For w < 10^19 and |e| <= 27, exact_value rounds it to the
   nearest double, ties to even, with one exact 128-bit product or one
   128 / 64-bit quotient and its remainder (Clinger's observation that a
   short significand and small exponent need no bignum); there is one
   such double, the one float() and numpy's reader give, so the bits are
   theirs.  0 is +-0.0 whatever e is; more digits, a larger |e|, and
   every nonzero value where the compiler has no unsigned __int128 go to
   PyOS_string_to_double, the function float() and numpy's reader call,
   which gives +-inf above the finite range.  It hands the whole block
   back (returns None) where a line is not an ASCII str or breaks the
   grammar: a blank line, a comment, a space, a '+' sign, inf, nan, '_',
   another field count or no final '\n'; read_trace then reads the file
   again with numpy, which refuses or accepts it as it does.
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

/* The longest text of "%.17g": a sign, 17 digits, a point and a
   five-character exponent (e-100).  exact_g17 writes at most 23: a sign,
   "0.000" and 17 digits, or a sign, 17 digits, a point and e-dd. */
#define VALUE_MAX 24

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

/* 5^q << z, its top bit at bit 127, as high and low words, and
   z - q - 64: less e, the right shift that takes the high 128 bits of
   m (5^q << z) to the integer part of m 2^e 10^q; set by PyInit__dynamics */
static struct { uint64_t hi, lo; int shift; } pow5[56];

/* x's "%.17g" text written at s and its end, or NULL, with nothing
   written, for x outside the fast range.  A normal x is m 2^e with
   2^52 <= m < 2^53.  k = ((e + 52) 78913) >> 18 (an arithmetic shift,
   as compilers with __int128 make it) is floor(log10 2^(e + 52)) for
   |e + 52| <= 1200, so x 10^q, q = 16 - k, lies in [1e16, 2e17), and for
   q in [0, 55] it is m 5^q 2^(e + q) exactly, a 53 x 128-bit product as
   5^55 < 2^128.  Its integer part n and exact rest give the 17 digits,
   rounded half to even; x 10^q >= 1e17 takes q - 1 once, and a round up
   to 1e17 reads 1e16 a decade up. */
static char *
exact_g17(double x, char *s)
{
    uint64_t bits, n;
    memcpy(&bits, &x, sizeof bits);
    if (x == 0.0) {
        if (bits >> 63)
            *s++ = '-';
        *s++ = '0';
        return s;
    }
    int biased = (bits >> 52) & 0x7ff, e = biased - 1075;
    if (biased == 0 || biased == 0x7ff)
        return NULL;
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52), lo;
    int q = 16 - (((e + 52) * 78913) >> 18), sh;
    if (q < 0 || q > 55)
        return NULL;
    u128 hi;
    for (;;) {
        u128 low = (u128)m * pow5[q].lo;
        hi = (u128)m * pow5[q].hi + (low >> 64);
        lo = (uint64_t)low;
        sh = pow5[q].shift - e;                 /* in [56, 63] */
        n = (uint64_t)(hi >> sh);
        if (n < TEN17)
            break;
        if (q-- == 0)
            return NULL;
    }
    uint64_t rest = (uint64_t)hi & ((1ULL << sh) - 1), half = 1ULL << (sh - 1);
    n += rest > half || (rest == half && (lo != 0 || (n & 1)));
    int exp10 = 16 - q;
    if (n == TEN17) {
        n = TEN16;
        exp10++;
    }

    char d[17];
    int nd = 17;
    for (int i = 16; i >= 0; i--, n /= 10)
        d[i] = '0' + n % 10;
    while (d[nd - 1] == '0')
        nd--;
    if (bits >> 63)
        *s++ = '-';
    int sci = exp10 < -4 || exp10 > 16, point = sci ? 1 : exp10 + 1;
    if (point <= 0) {
        memcpy(s, "0.000", 2 - point);
        memcpy(s + 2 - point, d, nd);
        return s + 2 - point + nd;
    }
    memcpy(s, d, point);
    s += point;
    if (nd > point) {
        *s++ = '.';
        memcpy(s, d + point, nd - point);
        s += nd - point;
    }
    if (sci) {
        int a = exp10 < 0 ? -exp10 : exp10;
        *s++ = 'e';
        *s++ = exp10 < 0 ? '-' : '+';
        *s++ = '0' + a / 10;
        *s++ = '0' + a % 10;
    }
    return s;
}
#else
/* no 128-bit integers: every value goes to PyOS_double_to_string */
#define exact_g17(x, s) NULL
#endif

static PyObject *
format_rows(PyObject *module, PyObject *block)
{
    Py_buffer view;
    PyObject *text = NULL;
    char *buf = NULL;

    if (!PyObject_CheckBuffer(block))
        Py_RETURN_NONE;
    if (PyObject_GetBuffer(block, &view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    if (view.ndim != 2 || view.itemsize != 8 || view.format == NULL
            || strcmp(view.format, "d") != 0 || view.strides[1] != 8
            || view.shape[1] < 1
            || view.shape[1] > PY_SSIZE_T_MAX / (VALUE_MAX + 1))
        goto hand_back;
    Py_ssize_t n_rows = view.shape[0], n_cols = view.shape[1];
    /* the longest text of a row: each value and its comma, then the flag
       and the newline */
    Py_ssize_t row_max = (n_cols - 1) * (VALUE_MAX + 1) + 2;
    if (n_rows > (PY_SSIZE_T_MAX - 1) / row_max)
        goto hand_back;
    char *end = buf = PyMem_Malloc(n_rows * row_max + 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        const double *row = (const double *)
            ((const char *)view.buf + i * view.strides[0]);
        double flag = row[n_cols - 1];
        if (!(flag == 0.0 || flag == 1.0))
            goto hand_back;
        for (Py_ssize_t j = 0; j < n_cols - 1; j++) {
            char *next = exact_g17(row[j], end);
            if (next == NULL) {
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
                next = end + len;
            }
            end = next;
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

#ifdef __SIZEOF_INT128__
/* 5^k for k in [0, EXACT_EXP10], set by PyInit__dynamics; 5^27 < 2^63 */
#define EXACT_EXP10 27
static uint64_t five[EXACT_EXP10 + 1];

/* w 10^e correctly rounded, written to *out, for 0 < w < 2^64; 0, with
   nothing written, for |e| > 27.  For e >= 0, n = w 5^e < 2^127 exactly
   and w 10^e = n 2^e.  For e < 0, w 2^s has its top bit at bit 63, n and
   rest are the quotient and remainder of w 2^(s + 64) by 5^-e, and
   w 10^e = (n + rest / 5^-e) 2^(e - s - 64); n has at least 65 bits, so
   its bits below the top 53 and a sticky bit for rest != 0 round it half
   to even.  Every such value lies in [1e-27, 2^64 1e27], normal. */
static int
exact_value(uint64_t w, Py_ssize_t e, double *out)
{
    if (e < -EXACT_EXP10 || e > EXACT_EXP10)
        return 0;
    u128 n;
    int bin = (int)e, sticky = 0;
    if (e >= 0)
        n = (u128)w * five[e];
    else {
        int s = __builtin_clzll(w);
        u128 num = (u128)(w << s) << 64;
        n = num / five[-e];
        sticky = num != n * five[-e];
        bin -= s + 64;
    }
    uint64_t hi = (uint64_t)(n >> 64);
    int len = hi ? 128 - __builtin_clzll(hi)
                 : 64 - __builtin_clzll((uint64_t)n);
    if (len <= 53) {
        *out = ldexp((double)(uint64_t)n, bin);
        return 1;
    }
    int sh = len - 53;
    uint64_t m = (uint64_t)(n >> sh);
    u128 rest = n & (((u128)1 << sh) - 1), half = (u128)1 << (sh - 1);
    m += rest > half || (rest == half && (sticky || (m & 1)));
    *out = ldexp((double)m, bin + sh);      /* m = 2^53 is exact too */
    return 1;
}
#else
/* no 128-bit integers: every nonzero field goes to PyOS_string_to_double */
#define exact_value(w, e, out) 0
#endif

/* The end of the field at s, the character after it, with its value
   written to *out; NULL where the field is not -?, digits with at most
   one '.' among them, at least one digit, then an optional exponent
   [eE][+-]?digits, or where PyOS_string_to_double fails, its exception
   then set.  s is NUL-terminated, and NUL ends every part of a field. */
static const char *
parse_field(const char *s, double *out)
{
    const char *p = s + (*s == '-');
    uint64_t w = 0;                 /* the first 19 significant digits */
    Py_ssize_t n_digits = 0, n_sig = 0, e = 0, x = 0;
    for (int point = 0;; p++) {
        if (*p == '.' && !point)
            point = 1;
        else if ('0' <= *p && *p <= '9') {
            n_digits++;
            e -= point;
            n_sig += n_sig || *p != '0';
            if (n_sig <= 19)
                w = w * 10 + (uint64_t)(*p - '0');
        }
        else
            break;
    }
    if (n_digits == 0)
        return NULL;
    if (*p == 'e' || *p == 'E') {
        int negative = p[1] == '-';
        p += 1 + (p[1] == '-' || p[1] == '+');
        if (*p < '0' || *p > '9')
            return NULL;
        /* a larger exponent is outside the exact range all the same */
        for (; '0' <= *p && *p <= '9'; p++)
            if (x < 100000)
                x = x * 10 + (*p - '0');
        e += negative ? -x : x;
    }
    if (n_sig == 0)
        *out = 0.0;
    else if (n_sig > 19 || !exact_value(w, e, out)) {
        char *end;
        *out = PyOS_string_to_double(s, &end, NULL);
        /* end != p never: the grammar is a part of Python's */
        return (*out == -1.0 && PyErr_Occurred()) || end != p ? NULL : p;
    }
    if (*s == '-')
        *out = -*out;
    return p;
}

static PyObject *
parse_rows(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "parse_rows expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *lines = args[0];
    if (!PyList_CheckExact(lines) || !PyLong_CheckExact(args[1]))
        Py_RETURN_NONE;
    Py_ssize_t n_lines = PyList_GET_SIZE(lines);
    Py_ssize_t n_cols = PyLong_AsSsize_t(args[1]);
    if (n_cols == -1 && PyErr_Occurred())
        PyErr_Clear();
    if (n_cols < 1 || n_lines > PY_SSIZE_T_MAX / 8 / n_cols)
        Py_RETURN_NONE;
    PyObject *values = PyBytes_FromStringAndSize(NULL, n_lines * n_cols * 8);
    if (values == NULL)
        return NULL;
    char *out = PyBytes_AS_STRING(values);
    for (Py_ssize_t i = 0; i < n_lines; i++) {
        PyObject *line = PyList_GET_ITEM(lines, i);
        Py_ssize_t len;
        if (!PyUnicode_CheckExact(line) || !PyUnicode_IS_ASCII(line))
            goto hand_back;
        const char *p = PyUnicode_AsUTF8AndSize(line, &len);
        if (p == NULL)
            goto hand_back;
        const char *end = p + len;
        for (Py_ssize_t j = 0; j < n_cols; j++, out += 8) {
            double x;
            p = parse_field(p, &x);
            if (p == NULL)
                goto hand_back;
            if (*p++ != (j < n_cols - 1 ? ',' : '\n'))
                goto hand_back;
            memcpy(out, &x, 8);
        }
        if (p != end)
            goto hand_back;
    }
    return values;
hand_back:
    /* or raise what PyOS_string_to_double raised */
    Py_DECREF(values);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fused_tick", (PyCFunction)(void (*)(void))fused_tick, METH_FASTCALL,
     "fused_tick(y, u, m_L, derived, dt, n_sub)\n--\n\n"
     "One control tick: n_sub RK4 steps of the coupled derivative, u held,\n"
     "then the non-finite check and the cable offset.  Returns\n"
     "(state tuple, zeta) with the Python loop's bits, or None where that\n"
     "loop would raise or this module does not read the input."},
    {"format_rows", format_rows, METH_O,
     "format_rows(block)\n--\n\n"
     "The trace text of a 2-D float64 block whose values in a row are\n"
     "adjacent: per row, each value but the last as \"%.17g,\" and the\n"
     "last, 0 or 1, as \"%d\\n\".  Each value's 17 digits are computed\n"
     "exactly, so the str is the one `%` gives; None where the block or a\n"
     "flag is outside that."},
    {"parse_rows", (PyCFunction)(void (*)(void))parse_rows, METH_FASTCALL,
     "parse_rows(lines, n_cols)\n--\n\n"
     "The float64 values, as bytes in row order, of a list of str lines\n"
     "that each hold n_cols numbers, one ',' between them, and end in\n"
     "'\\n'.  Each value is the one float() gives its text; None where a\n"
     "line or a field is outside that."},
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
#ifdef __SIZEOF_INT128__
    u128 p = 1;
    for (int q = 0; q < 56; q++, p *= 5) {
        int z = 0;
        while (!((p << z) >> 127))
            z++;
        pow5[q].hi = (uint64_t)((p << z) >> 64);
        pow5[q].lo = (uint64_t)(p << z);
        pow5[q].shift = z - q - 64;
    }
    five[0] = 1;
    for (int k = 1; k <= EXACT_EXP10; k++)
        five[k] = five[k - 1] * 5;
#endif
    return PyModuleDef_Init(&module_def);
}
