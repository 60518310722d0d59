;;; The Section 7 example (Table 4): prog, optional-argument defaulting,
;;; the float pipeline and a call to an undistinguished FROTZ, driven in
;;; a loop.  X comes from the benchmark seed; for every X in the seeded
;;; range the same branches run, so the work does not depend on the seed.

(defun frotz (d e m) nil)

(defun testfn (a &optional (b 3.0) (c a))
  (prog (d (e 0.0))
    (setq d (*$f 3.0 (sin$f (*$f a b))))
    (cond ((>$f d e)
           (setq e (max$f d (abs$f c)))))
    (frotz d e 0.0)
    (return (+$f d e))))

(defun drive (n x)
  (do ((i 0 (1+ i))
       (acc 0.0))
      ((= i n) acc)
    (setq acc (+$f acc (testfn x 0.25)))))
