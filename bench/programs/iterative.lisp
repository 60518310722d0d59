;;; Iteration via prog/go (the tail-call and progbody machinery) plus
;;; fixnum arithmetic -- exercises jump-strategy lambdas and CMPBR.

(defun triangle (n)
  ;; 1 + 2 + ... + n, iteratively.
  (let ((sum 0) (i 1))
    (prog ()
      loop
      (if (>& i n) (return sum))
      (setq sum (+& sum i))
      (setq i (1+ i))
      (go loop))))

(defun gcd& (a b)
  (prog ()
    loop
    (if (=& b 0) (return a))
    (let ((r (rem a b)))
      (setq a b)
      (setq b r))
    (go loop)))

(defun fib (n)
  (if (<& n 2)
      n
      (+& (fib (-& n 1)) (fib (-& n 2)))))
