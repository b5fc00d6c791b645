/* One control tick of slungsim.simloop.advance_tick, compiled: the n_sub
   RK4 steps of slungsim.dynamics.coupled_derivative_array, the non-finite
   check and the cable offset, on C arrays.

   slungsim.dynamics builds this file once with -O2 -ffp-contract=off -fPIC
   and no flag that lets the compiler reassociate, fuse or widen float
   arithmetic, so each expression below rounds exactly as the Python
   expression it copies: the same operations, in the same order, with the
   same association.  Only the arithmetic is copied.  Where the Python
   tick would raise (an attitude or taut-cable guard fails in a stage, a
   stage divides by zero, or the final state is non-finite or slack),
   fused_tick returns None, and advance_tick runs its Python loop from the
   same state, which raises its own exception with its own message.

   Only lists and tuples of exact floats, of lengths 16 and 4, an exact
   float m_L, a params.derived tuple of 11 exact floats, an exact float
   dt > 0 and an exact int n_sub of at least 1 are read here.  For any
   other input (an ndarray, ints, numpy scalars) fused_tick returns None
   too, and the Python loop's arithmetic follows those types' own rules:
   numpy scalars, for one, warn where Python floats raise.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define HALF_PI (Py_MATH_PI / 2.0)

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

/* q = a / b, noting in fail a zero b, where Python's float `/` raises */
#define DIVIDE(q, a, b)                                                   \
    do {                                                                  \
        double den_ = (b);                                                \
        fail |= den_ == 0.0;                                              \
        (q) = (a) / den_;                                                 \
    } while (0)

/* Fill value with the 16 rates of the Python function, the pass-through
   rates (0-2, 6-8, 12 and 13) read from y; 0 where it would raise: a
   guard fails or a divisor is 0. */
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

    value[0] = y[3];
    value[1] = y[4];
    value[2] = y[5];
    value[3] = b1 - mu * r_dd;
    value[4] = b2 - mu * s_dd;
    value[5] = b3 - z_load;
    value[6] = pr;
    value[7] = qr;
    value[8] = rr;
    value[9] = cx * qr * rr + lx * U2;
    value[10] = cy * pr * rr + ly * U3;
    value[11] = cz * qr * pr + yaw;
    value[12] = vr;
    value[13] = vs;
    value[14] = r_dd;
    value[15] = s_dd;
    return !fail;
}

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

static PyMethodDef methods[] = {
    {"fused_tick", (PyCFunction)(void (*)(void))fused_tick, METH_FASTCALL,
     "fused_tick(y, u, m_L, derived, dt, n_sub)\n--\n\n"
     "One control tick: n_sub RK4 steps of the coupled derivative, u held,\n"
     "then the non-finite check and the cable offset.  Returns\n"
     "(state tuple, zeta) with the Python loop's bits, or None where that\n"
     "loop would raise or this module does not read the input."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_dynamics",
    "One control tick of slungsim.simloop.advance_tick, compiled.",
    0, methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC
PyInit__dynamics(void)
{
    return PyModuleDef_Init(&module_def);
}
