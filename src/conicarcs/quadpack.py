"""QUADPACK's QAGS for the arc-length integrand, in pure Python.

A port of ``dqagse`` with its 21-point Gauss-Kronrod rule ``dqk21``, its
error-list ordering ``dqpsrt`` and its epsilon-algorithm extrapolation
``dqelg`` (R. Piessens, E. de Doncker-Kapenga, C. W. Überhuber and
D. K. Kahaner, *QUADPACK*, Springer 1983), specialised to

    f(theta) = sqrt(1 + 2 e cos(theta) + e^2) / (1 + e cos(theta))^2

on [-beta, beta] with no absolute tolerance.  Every floating-point operation
is QUADPACK's, in QUADPACK's order, so ``qags`` returns bit for bit the value,
error estimate and evaluation count of ``scipy.integrate.quad(f, -beta, beta,
epsabs=0, epsrel=EPSREL, limit=LIMIT)``, and raises ``ZeroDivisionError``
where ``1 + e cos(theta)`` rounds to 0 at a node, as the integrand does there.
Sums are written with ``+`` in QUADPACK's order: ``sum()``, compensated from
Python 3.12 on, ``math.fsum`` and ``math.sumprod`` would each round
differently.

Two exact properties of f skip work without changing a bit:

- f is even, and ``cos(-x) == cos(x)``.  The nodes of the mirror [-b, -a]
  of [a, b] are those of [a, b] negated, so f at the two nodes of each pair
  trades places, and ``dqk21`` only ever adds those two values together or
  weights them alike: the two rules are bitwise equal, and a mirror already
  integrated is not integrated again.  On [-beta, beta] the two nodes of each
  pair give one value.
- f >= 0 at every node, so the rule's ``resabs`` (the integral of |f|) is its
  result.

Arrays keep QUADPACK's 1-based indices (slot 0 is unused), so the port reads
line by line against the Fortran.  Unlike there, the subinterval tables grow
by one slot per bisection, and the 52-entry epsilon table is made only when a
second bisection is due: an arc whose first rule converges allocates none.
"""

from math import cos, sqrt

__all__ = ["EPSREL", "LIMIT", "qags"]

EPSREL = 1e-12  # the relative tolerance
LIMIT = 60  # the subdivision budget: at most LIMIT subintervals
_EPMACH = 2.220446049250313e-16  # d1mach(4): 2**-52
_UFLOW = 2.2250738585072014e-308  # d1mach(1): the smallest normal double
_OFLOW = 1.7976931348623157e308  # d1mach(2): the largest double
_RESABS_FLOOR = _UFLOW / (50.0 * _EPMACH)


def _kronrod(hlgth, fc, f1a, f1b, f2a, f2b, f3a, f3b, f4a, f4b, f5a, f5b,
             f6a, f6b, f7a, f7b, f8a, f8b, f9a, f9b, f10a, f10b):
    """``dqk21``'s (result, abserr, resasc) from f at its 21 nodes.

    hlgth is the half-length of the interval; fc is f at its centre, and f<j>a
    and f<j>b are f at centre -+ hlgth * xgk(j).  The even j are also the
    10-point Gauss nodes.  resasc approximates the integral of |f - mean|.
    """
    fs1 = f1a + f1b
    fs2 = f2a + f2b
    fs3 = f3a + f3b
    fs4 = f4a + f4b
    fs5 = f5a + f5b
    fs6 = f6a + f6b
    fs7 = f7a + f7b
    fs8 = f8a + f8b
    fs9 = f9a + f9b
    fs10 = f10a + f10b
    # Gauss weights wg(1..5) and Kronrod weights wgk(1..11)
    resg = (0.066671344308688137593568809893332 * fs2
            + 0.149451349150580593145776339657697 * fs4
            + 0.219086362515982043995534934228163 * fs6
            + 0.269266719309996355091226921569469 * fs8
            + 0.295524224714752870173892994651338 * fs10)
    resk = (0.149445554002916905664936468389821 * fc
            + 0.032558162307964727478818972459390 * fs2
            + 0.075039674810919952767043140916190 * fs4
            + 0.109387158802297641899210590325805 * fs6
            + 0.134709217311473325928054001771707 * fs8
            + 0.147739104901338491374841515972068 * fs10
            + 0.011694638867371874278064396062192 * fs1
            + 0.054755896574351996031381300244580 * fs3
            + 0.093125454583697605535065465083366 * fs5
            + 0.123491976262065851077208606515894 * fs7
            + 0.142775938577060080797094273138717 * fs9)
    h = resk * 0.5
    resasc = (0.149445554002916905664936468389821 * abs(fc - h)
              + 0.011694638867371874278064396062192 * (abs(f1a - h) + abs(f1b - h))
              + 0.032558162307964727478818972459390 * (abs(f2a - h) + abs(f2b - h))
              + 0.054755896574351996031381300244580 * (abs(f3a - h) + abs(f3b - h))
              + 0.075039674810919952767043140916190 * (abs(f4a - h) + abs(f4b - h))
              + 0.093125454583697605535065465083366 * (abs(f5a - h) + abs(f5b - h))
              + 0.109387158802297641899210590325805 * (abs(f6a - h) + abs(f6b - h))
              + 0.123491976262065851077208606515894 * (abs(f7a - h) + abs(f7b - h))
              + 0.134709217311473325928054001771707 * (abs(f8a - h) + abs(f8b - h))
              + 0.142775938577060080797094273138717 * (abs(f9a - h) + abs(f9b - h))
              + 0.147739104901338491374841515972068 * (abs(f10a - h) + abs(f10b - h)))
    result = resk * hlgth
    resasc = resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        scale = (200.0 * abserr / resasc) ** 1.5
        abserr = resasc * (scale if scale < 1.0 else 1.0)
    if result > _RESABS_FLOOR:  # result is resabs: f >= 0
        floor = (_EPMACH * 50.0) * result
        if not abserr > floor:
            abserr = floor
    return result, abserr, resasc


def _rule(e, esq, a, b):
    """``dqk21`` on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # f(x) written out: c = e cos(x), d = 1 + c, f = sqrt(1 + 2 c + e^2) / d^2
    c = e * cos(centr); d = 1.0 + c; fc = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.995657163025808080735527280689003
    c = e * cos(centr - x); d = 1.0 + c; f1a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f1b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.973906528517171720077964012084452
    c = e * cos(centr - x); d = 1.0 + c; f2a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f2b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.930157491355708226001207180059508
    c = e * cos(centr - x); d = 1.0 + c; f3a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f3b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.865063366688984510732096688423493
    c = e * cos(centr - x); d = 1.0 + c; f4a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f4b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.780817726586416897063717578345042
    c = e * cos(centr - x); d = 1.0 + c; f5a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f5b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.679409568299024406234327365114874
    c = e * cos(centr - x); d = 1.0 + c; f6a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f6b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.562757134668604683339000099272694
    c = e * cos(centr - x); d = 1.0 + c; f7a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f7b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.433395394129247190799265943165784
    c = e * cos(centr - x); d = 1.0 + c; f8a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f8b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.294392862701460198131126603103866
    c = e * cos(centr - x); d = 1.0 + c; f9a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f9b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    x = hlgth * 0.148874338981631210884826001129720
    c = e * cos(centr - x); d = 1.0 + c; f10a = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(centr + x); d = 1.0 + c; f10b = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    return _kronrod(hlgth, fc, f1a, f1b, f2a, f2b, f3a, f3b, f4a, f4b, f5a, f5b,
                    f6a, f6b, f7a, f7b, f8a, f8b, f9a, f9b, f10a, f10b)


def _even_rule(e, esq, beta):
    """``dqk21`` on [-beta, beta], where the centre is 0 and f(-x) is f(x)."""
    c = e; d = 1.0 + c; fc = sqrt(1.0 + 2.0 * c + esq) / (d * d)  # cos(0.0) is 1.0
    c = e * cos(beta * 0.995657163025808080735527280689003)
    d = 1.0 + c; f1 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.973906528517171720077964012084452)
    d = 1.0 + c; f2 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.930157491355708226001207180059508)
    d = 1.0 + c; f3 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.865063366688984510732096688423493)
    d = 1.0 + c; f4 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.780817726586416897063717578345042)
    d = 1.0 + c; f5 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.679409568299024406234327365114874)
    d = 1.0 + c; f6 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.562757134668604683339000099272694)
    d = 1.0 + c; f7 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.433395394129247190799265943165784)
    d = 1.0 + c; f8 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.294392862701460198131126603103866)
    d = 1.0 + c; f9 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    c = e * cos(beta * 0.148874338981631210884826001129720)
    d = 1.0 + c; f10 = sqrt(1.0 + 2.0 * c + esq) / (d * d)
    return _kronrod(beta, fc, f1, f1, f2, f2, f3, f3, f4, f4, f5, f5,
                    f6, f6, f7, f7, f8, f8, f9, f9, f10, f10)


def qags(e, beta):
    """``dqagse`` for f on [-beta, beta] with epsabs 0: (value, abserr, neval).

    neval is QUADPACK's nominal count, 21 per rule and 42 * last - 21 after
    ``last`` subintervals, not the number of times f was evaluated here.
    """
    esq = e * e
    result, abserr, resasc = _even_rule(e, esq, beta)
    errbnd = EPSREL * result  # result is |result|: f >= 0
    # dqagse's exits for LIMIT == 1 and for errbnd < abserr <= 100 eps result never occur
    if abserr == 0.0 or (abserr <= errbnd and abserr != resasc):
        return result, abserr, 21
    rules = {}

    def rule(a, b):
        got = rules.get((-b, -a))
        if got is None:
            got = rules[a, b] = _rule(e, esq, a, b)
        return got

    # the bisection that makes subinterval last appends its slot to each table
    alist, blist, iord = [0.0, -beta], [0.0, beta], [0, 1]
    rlist, elist = [0.0, result], [0.0, abserr]
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    small = erlarg = ertest = correc = 0.0
    stop = False  # dqagse's ier != 0

    # each pass bisects the subinterval with the nrmax-th largest error and
    # leaves by break: at the latest, last == LIMIT stops it
    for last in range(2, LIMIT + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, defab1 = rule(a1, b1)
        area2, error2, defab2 = rule(a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = EPSREL * abs(area)
        # roundoff, the subdivision budget, or an interval too small to bisect
        if (iroff1 + iroff2 >= 10 or iroff3 >= 20 or last == LIMIT
                or max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            stop = True
        if iroff2 >= 5:
            ierro = 3

        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)  # dqpsrt orders iord(1..last)
        maxerr, errmax, nrmax = _sort(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum(rlist, last), errsum, 42 * last - 21
        if stop:
            break
        if last == 2:
            small = (beta + beta) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2 = [0.0, result, area] + [0.0] * 50  # the epsilon table, 52 entries
            res3la = [0.0] * 4  # the last three extrapolated values
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before extrapolating,
            # bisect the larger intervals whose errors make up erlarg
            jupbnd = LIMIT + 3 - last if last > 2 + LIMIT // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _extrapolate(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            stop = True
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = EPSREL * abs(reseps)
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if stop:
            break
        # bisect the largest interval again
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # choose between the extrapolated result and the sum over the subintervals
    if abserr == _OFLOW:
        use_sum = True
    elif not stop and ierro == 0:
        use_sum = False
    else:
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            use_sum = abserr / abs(result) > errsum / abs(area)
        else:
            use_sum = abserr > errsum
    if use_sum:
        return _sum(rlist, last), errsum, 42 * last - 21
    return result, abserr, 42 * last - 21


def _sum(rlist, last):
    """rlist(1) + ... + rlist(last), added left to right."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total


def _sort(last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: iord in descending order of elist; (maxerr, errmax, nrmax) to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # only where subdivision increased the error does the insertion start above nrmax
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many as can still be bisected are kept in order
        jupbn = LIMIT + 3 - last if last > LIMIT // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax top-down, then errmin bottom-up
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                iord[k + 1] = last
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _extrapolate(n, epstab, res3la, nres):
    """``dqelg``, Wynn's epsilon algorithm on epstab(1..n), n >= 3: (new n, result, abserr, nres).

    epstab and res3la are updated in place; ``qags`` stops extrapolating once n is 1.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0 = epstab[k1 - 2]
        e1 = epstab[k1 - 1]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close to each other: omit a part of the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        # irregular behaviour in the table: omit a part of it
        if not abs(ss * e1) > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if not error > abserr:
            abserr = error
            result = res
    # shift the table; it keeps at most 50 entries (limexp)
    if n == 50:
        n = 49
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib = ib + 2
    if num != n:
        indx = num - n + 1
        for j in range(1, n + 1):
            epstab[j] = epstab[indx]
            indx = indx + 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
