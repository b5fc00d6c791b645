/* Compiled twin of slungsim.dynamics.coupled_derivative_array.

   slungsim.dynamics builds this file once with -O2 -ffp-contract=off -fPIC
   and no flag that lets the compiler reassociate, fuse or widen float
   arithmetic, so each expression below rounds exactly as the Python
   expression it copies: the same operations, in the same order, with the
   same association.  Only the arithmetic is copied.  A call whose attitude
   or taut-cable guard fails, or that divides by zero, is handed to the
   Python function, which raises its own exception with its own message.

   Only lists and tuples of exact floats, of lengths 16 and 4, an exact
   float m_L and a params.derived tuple of 11 exact floats are read here.
   Any other input (an ndarray, ints, numpy scalars, keyword arguments) is
   handed to the Python function too, whose arithmetic follows those
   types' own rules: numpy scalars, for one, warn where Python floats raise.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define HALF_PI (Py_MATH_PI / 2.0)

/* set once by bind(): the Python function */
static PyObject *reference;
static PyObject *derived_name;

/* Point items at the n entries of seq and copy their values to out; 0 if
   seq is not an exact list or tuple of n exact floats. */
static int
read_floats(PyObject *seq, Py_ssize_t n, PyObject *const **items,
            double *out)
{
    if (!(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
            || PySequence_Fast_GET_SIZE(seq) != n)
        return 0;
    *items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyFloat_CheckExact((*items)[i]))
            return 0;
        out[i] = PyFloat_AS_DOUBLE((*items)[i]);
    }
    return 1;
}

/* q = a / b, noting in fail a zero b, where Python's float `/` raises */
#define DIVIDE(q, a, b)                                                   \
    do {                                                                  \
        double den_ = (b);                                                \
        fail |= den_ == 0.0;                                              \
        (q) = (a) / den_;                                                 \
    } while (0)

/* Fill the rates of value that the Python function computes (3-5, 9-11,
   14 and 15); 0 where it would raise: a guard fails or a divisor is 0. */
static int
derivative(const double *y, const double *u, double m_L, const double *d,
           double *value)
{
    double phi = y[6], theta = y[7], pr = y[9], qr = y[10], rr = y[11];
    double r = y[12], s = y[13], vr = y[14], vs = y[15];
    double U1 = u[0], U2 = u[1], U3 = u[2], U4 = u[3];
    int fail = fabs(phi) >= HALF_PI || fabs(theta) >= HALF_PI;
    /* cx = (I_y - I_z)/I_x and lx = l/I_x; cy, ly and cz likewise */
    double L = d[0], LL = d[1], floor2 = d[2], m_q = d[3], g = d[4];
    double cx = d[5], lx = d[6], cy = d[7], ly = d[8], cz = d[9], I_z = d[10];
    double M = m_q + m_L;
    double mu;
    DIVIDE(mu, m_L, M);
    double Lr = LL - r * r;
    double Ls = LL - s * s;
    double zsq = Lr - s * s;
    fail |= zsq <= floor2;
    double zeta = sqrt(zsq);
    double z2 = zeta * zeta;

    double cphi = cos(phi);
    double U1_M;
    DIVIDE(U1_M, U1, M);
    double rvr_svs = r * vr + s * vs;
    double B = Ls * vr * vr + Lr * vs * vs + 2.0 * r * s * vr * vs;

    double b1 = cphi * sin(theta) * U1_M;
    double b2 = -sin(phi) * U1_M;
    /* the quotients of b3, then b3 as Python sums it, left to right */
    double q_vel, q_rate, q_hang, q_grav;
    DIVIDE(q_vel, mu * (vr * vr + vs * vs), zeta);
    DIVIDE(q_rate, mu * rvr_svs * rvr_svs, z2 * zeta);
    DIVIDE(q_hang, m_L * zeta, L);
    DIVIDE(q_grav, g * (q_hang + m_q), M);
    double b3 = cphi * cos(theta) * U1_M - q_vel - q_rate - q_grav;

    double B_z2;
    DIVIDE(B_z2, B, z2);
    double common = B_z2 + g * zeta + zeta * b3;
    double c1 = r * common + z2 * b1;
    double c2 = s * common + z2 * b2;
    double rs = r * s;
    double k;
    DIVIDE(k, m_q, M);
    double kdet = k * LL * z2;
    double r_dd, s_dd, z_load, yaw;
    DIVIDE(r_dd, rs * c2 - Lr * c1, kdet);
    DIVIDE(s_dd, rs * c1 - Ls * c2, kdet);
    DIVIDE(z_load, mu * (r * r_dd + s * s_dd), zeta);
    DIVIDE(yaw, U4, I_z);

    value[3] = b1 - mu * r_dd;
    value[4] = b2 - mu * s_dd;
    value[5] = b3 - z_load;
    value[9] = cx * qr * rr + lx * U2;
    value[10] = cy * pr * rr + ly * U3;
    value[11] = cz * qr * pr + yaw;
    value[14] = r_dd;
    value[15] = s_dd;
    return !fail;
}

static PyObject *
coupled_derivative_array(PyObject *module, PyObject *const *args,
                         size_t nargsf, PyObject *kwnames)
{
    PyObject *const *yi, *const *ui, *const *di;
    PyObject *derived = NULL;
    double y[16], u[4], d[11], value[16];

    if (reference == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_dynamics is not bound");
        return NULL;
    }
    /* params first: a lookup may run Python code, and nothing from y may
       be borrowed across Python code */
    if (kwnames == NULL && PyVectorcall_NARGS(nargsf) == 4
            && (derived = PyObject_GetAttr(args[3], derived_name)) == NULL)
        PyErr_Clear();
    int exact = derived != NULL && read_floats(derived, 11, &di, d);
    Py_XDECREF(derived);
    if (!exact || !read_floats(args[0], 16, &yi, y)
            || !read_floats(args[1], 4, &ui, u)
            || !PyFloat_CheckExact(args[2])
            || !derivative(y, u, PyFloat_AS_DOUBLE(args[2]), d, value))
        return PyObject_Vectorcall(reference, args, nargsf, kwnames);

    /* rates the Python function returns as the input objects themselves,
       owned here before PyList_New can run the garbage collector */
    PyObject *same[16] = {yi[3], yi[4], yi[5], NULL, NULL, NULL,
                          yi[9], yi[10], yi[11], NULL, NULL, NULL,
                          yi[14], yi[15], NULL, NULL};
    for (int i = 0; i < 16; i++)
        Py_XINCREF(same[i]);
    PyObject *out = PyList_New(16);
    for (int i = 0; i < 16; i++) {
        PyObject *item = same[i];
        if (item == NULL && out != NULL
                && (item = PyFloat_FromDouble(value[i])) == NULL)
            Py_CLEAR(out);
        if (out != NULL)
            PyList_SET_ITEM(out, i, item);
        else
            Py_XDECREF(item);
    }
    return out;
}

static PyObject *
bind(PyObject *module, PyObject *ref)
{
    Py_XSETREF(reference, Py_NewRef(ref));
    Py_RETURN_NONE;
}

static int
exec_module(PyObject *module)
{
    if (derived_name == NULL)
        derived_name = PyUnicode_InternFromString("derived");
    return derived_name == NULL ? -1 : 0;
}

static PyMethodDef methods[] = {
    {"coupled_derivative_array",
     (PyCFunction)(void (*)(void))coupled_derivative_array,
     METH_FASTCALL | METH_KEYWORDS,
     "coupled_derivative_array(y, u, m_L, params)\n--\n\n"
     "Time derivative of the 16-element coupled state, as a list: the\n"
     "Python function's result, bit for bit."},
    {"bind", bind, METH_O,
     "bind(reference)\n--\n\n"
     "Hand over the Python function that takes every call this module\n"
     "does not finish: input it does not read, and every call that raises."},
    {NULL, NULL, 0, NULL}
};

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_dynamics",
    "Compiled twin of slungsim.dynamics.coupled_derivative_array.",
    0, methods, slots, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__dynamics(void)
{
    return PyModuleDef_Init(&module_def);
}
